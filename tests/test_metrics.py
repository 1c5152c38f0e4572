"""Exact payoff/social-cost integration and intervention-cost machinery."""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    adversarial_profile,
    better_response_dynamics,
    ic_search,
    intervention_gap,
    mc_payoff,
    mc_social_cost,
    neutrality_check,
    PiecewiseLinearDensity,
    compile_policy,
    optimal_locations,
    payoff,
    social_cost,
)
from hotelling_mediators import mediators, metrics
from hotelling_mediators.core import _MEDIATORS
from hotelling_mediators.mediators import _snap_to_endpoints

from test_policy_reference import COORDS, PROPERTY_GAMES, ZIGZAG, _custom_dictator, _mediators, _profiles, anchored

EXACT = 1e-12
SUM_TOL = 1e-9


class TestPayoff:
    def test_symmetric_split(self):
        assert payoff(GameSpec(2, Nime()), (0.25, 0.75)) == (0.5, 0.5)

    def test_glime_equal_shares_at_quantiles(self):
        got = payoff(GameSpec(3, Glime(epsilon=1e-3)), (1 / 6, 0.5, 5 / 6))
        assert all(abs(x - 1 / 3) <= SUM_TOL for x in got)

    def test_dict_obeying_player_takes_all(self):
        assert payoff(GameSpec(2, Dictator()), (0.25, 0.9)) == (1.0, 0.0)

    def test_lime_optimum_shares_cross_checked_against_sampling(self):
        game = GameSpec(4, Lime(epsilon=1e-3))
        profile = optimal_locations(4)
        got = payoff(game, profile)
        assert all(abs(x - 0.25) <= EXACT for x in got)
        est, se = mc_payoff(game, profile, n_samples=200_000, seed=5)
        for x, e, s in zip(got, est, se):
            assert abs(x - e) <= 3.0 * max(s, 1e-12)

    @settings(max_examples=50)
    @given(COORDS, st.permutations(range(5)))
    def test_payoffs_permute_with_the_players(self, coords, order):
        # The neutral rules: renaming the players renames their payoffs and
        # leaves the social cost alone.  The sums run in another order, so
        # the match is within 1e-12, not bitwise.
        for game in PROPERTY_GAMES:
            if isinstance(game.mediator, Dictator):
                continue
            perm = [k for k in order if k < game.n]
            profile = anchored(game, coords)
            permuted = tuple(profile[k] for k in perm)
            base, moved = payoff(game, profile), payoff(game, permuted)
            assert all(abs(moved[i] - base[perm[i]]) <= EXACT for i in range(game.n)), (game, profile, perm)
            assert abs(social_cost(game, permuted) - social_cost(game, profile)) <= EXACT, (game, profile, perm)

    def test_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            game = GameSpec(n, Clime(lam=1 / 8, epsilon=1e-3))
            values = payoff(game, tuple(rng.random(n)))
            assert abs(sum(values) - 1.0) <= SUM_TOL
            assert all(0.0 <= v <= 1.0 for v in values)


class TestSocialCost:
    def test_paired_center(self):
        assert abs(social_cost(GameSpec(2, Nime()), (0.5, 0.5)) - 0.25) <= EXACT

    def test_optimal_profile_cost(self):
        got = social_cost(GameSpec(4, Nime()), optimal_locations(4))
        assert abs(got - 1 / 16) <= EXACT

    def test_dict_total_disobedience(self):
        assert abs(social_cost(GameSpec(2, Dictator()), (0.0, 1.0)) - 0.5) <= EXACT

    def test_glime_optimum_cost(self):
        got = social_cost(GameSpec(3, Glime(epsilon=1e-3)), (1 / 6, 0.5, 5 / 6))
        assert abs(got - 5 / 36) <= SUM_TOL

    def test_clime_edge_profile_cost(self):
        game = GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3))
        got = social_cost(game, (3 / 8, 5 / 8))
        assert abs(got - (0.25 - 1 / 8 + 2 / 64)) <= EXACT


class TestInterventionGap:
    def test_no_intervention_zero(self):
        rng = np.random.default_rng(9)
        game = GameSpec(3, Nime())
        for _ in range(20):
            assert intervention_gap(game, tuple(rng.random(3))) == 0.0

    def test_dict_extremes(self):
        assert abs(intervention_gap(GameSpec(2, Dictator()), (0.0, 1.0)) - 0.25) <= EXACT

    def test_clime_pair_profile(self):
        game = GameSpec(2, Clime(lam=1 / 8, epsilon=1e-12))
        lam = 1 / 8
        assert abs(intervention_gap(game, (0.0, 0.5)) - (lam - lam * lam)) <= 1e-9

    def test_nonnegative_on_sample(self):
        rng = np.random.default_rng(21)
        mediators = [
            Nime(),
            Dictator(),
            Lime(epsilon=1e-3),
            Glime(epsilon=1e-3),
            Clime(lam=1 / 8, epsilon=1e-3),
        ]
        for n in (2, 3, 4):
            for m in mediators:
                game = GameSpec(n, m)
                for _ in range(60):
                    assert intervention_gap(game, tuple(rng.random(n))) >= -1e-9

    @settings(max_examples=50)
    @given(COORDS)
    def test_nonnegative_under_every_density(self, coords):
        for game in PROPERTY_GAMES:
            profile = anchored(game, coords)
            assert intervention_gap(game, profile) >= -1e-12, (game, profile)


def _counting_prefixes(monkeypatch):
    """The points whose density prefixes are computed, in order."""
    seen = []
    prefix = PiecewiseLinearDensity._prefix

    def counting(self, x):
        seen.append(x)
        return prefix(self, x)

    monkeypatch.setattr(PiecewiseLinearDensity, "_prefix", counting)
    return seen


class TestSharedPrefixes:
    # Under a piecewise-linear density the (cdf, first-moment) prefixes of a
    # point are computed once per compiled profile: a piece's upper end
    # serves as the next piece's lower end, both sides of a gap share them,
    # a facility's are computed only when a piece straddles it, and payoff,
    # social cost and gap on one profile share one memo.
    @pytest.mark.parametrize("price", [payoff, social_cost, intervention_gap], ids=["payoff", "cost", "gap"])
    def test_no_point_is_prefixed_twice(self, price, monkeypatch):
        seen = _counting_prefixes(monkeypatch)
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 8):
            for mediator in (*_mediators(n).values(), _custom_dictator(n)):
                game = GameSpec(n, mediator, ZIGZAG)
                for profile in _profiles(rng, game, 12):
                    seen.clear()
                    price(game, profile)
                    assert len(set(seen)) == len(seen), (mediator, profile, seen)
                    snapped = _snap_to_endpoints(game, profile)
                    ends = set(compile_policy(game, profile).breakpoints)
                    if price is intervention_gap:
                        ends |= set(compile_policy(game.nime_twin, snapped).breakpoints)
                    if price is payoff:
                        assert set(seen) == ends, (mediator, profile, seen)
                    else:
                        assert ends <= set(seen) <= ends | set(snapped), (mediator, profile, seen)

    def test_one_profile_prefixes_each_point_once_in_total(self, monkeypatch):
        seen = _counting_prefixes(monkeypatch)
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 8):
            for mediator in (*_mediators(n).values(), _custom_dictator(n)):
                game = GameSpec(n, mediator, ZIGZAG)
                for profile in _profiles(rng, game, 6):
                    seen.clear()
                    payoff(game, profile)
                    social_cost(game, profile)
                    intervention_gap(game, profile)
                    assert len(set(seen)) == len(seen), (mediator, profile, seen)

    def test_a_new_compile_starts_a_fresh_memo(self, monkeypatch):
        seen = _counting_prefixes(monkeypatch)
        game = GameSpec(3, Lime(epsilon=1e-2), ZIGZAG)
        profile = (0.2, 0.45, 0.8)
        payoff(game, profile)
        first = list(seen)
        assert first
        seen.clear()
        payoff(game, profile)
        assert seen == []
        # An emptied compile slot, an equal but distinct game object, and
        # another profile in between each start a fresh memo.
        monkeypatch.setattr(mediators, "_last_compile", (None, None, None))
        twin = GameSpec(3, Lime(epsilon=1e-2), ZIGZAG)
        for calls in ([(game, profile)], [(twin, profile)], [(game, (0.1, 0.45, 0.8)), (game, profile)]):
            seen.clear()
            for g, p in calls:
                payoff(g, p)
            assert seen[-len(first) :] == first, calls


class TestAdversarialProfiles:
    def test_dict_construction(self):
        got = adversarial_profile("dict", 3, 0.01)
        want = (1 / 6, 0.5 + 0.01, 5 / 6 + 0.01)
        assert all(abs(a - b) <= EXACT for a, b in zip(got, want))

    def test_lime_construction(self):
        assert adversarial_profile("lime", 4, 0.01) == (0.135, 0.135, 0.865, 0.865)
        assert adversarial_profile(Lime(), 4, 0.01) == (0.135, 0.135, 0.865, 0.865)

    def test_glime_construction(self):
        assert adversarial_profile("glime", 4) == (1 / 8, 1 / 8, 7 / 8, 7 / 8)

    def test_clime_two_player_profile(self):
        assert adversarial_profile("clime", 2) == (0.0, 0.5)

    @pytest.mark.parametrize("n", [3.9, 3.0, True, "3", None])
    def test_player_count_must_be_an_integer(self, n):
        # int(n) truncated: adversarial_profile("lime", 3.9) ran as n = 3.
        # The analytic bounds are read through a game, whose n is checked the
        # same way.
        with pytest.raises(ValueError, match="integer"):
            adversarial_profile("lime", n)
        with pytest.raises(ValueError, match="integer"):
            GameSpec(n, Lime())

    def test_player_count_minimum_and_numpy_integers(self):
        with pytest.raises(ValueError, match="two players"):
            adversarial_profile("lime", 1)
        with pytest.raises(ValueError, match="two players"):
            GameSpec(np.int64(1), Lime())
        assert adversarial_profile("lime", np.int64(4), 0.01) == adversarial_profile("lime", 4, 0.01)
        game = GameSpec(np.int32(3), Lime())
        assert game.mediator.ic_bounds(game.n) == Lime().ic_bounds(3)

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            adversarial_profile("nime", 4)
        with pytest.raises(ValueError):
            adversarial_profile("dict", 2)
        with pytest.raises(ValueError):
            adversarial_profile("clime", 3)
        with pytest.raises(ValueError):
            adversarial_profile("lime", 4, delta=0.2)
        with pytest.raises(ValueError, match="no adversarial fixture for mediator kind 'beta'"):
            adversarial_profile("beta", 4)


class TestAnalyticBounds:
    def test_nime_zero(self):
        assert Nime().ic_bounds(5) == (0.0, 0.0)

    def test_dict_three_players(self):
        lower, upper = Dictator().ic_bounds(3)
        assert abs(lower - (0.5 - 0.25 + 1 / 36)) <= EXACT
        assert round(lower, 3) == 0.278
        assert upper is None

    def test_lime_three_players_small_epsilon(self):
        lower, upper = Lime(epsilon=1e-9).ic_bounds(3)
        assert abs(lower - 2 / 9) <= 1e-9
        assert abs(upper - 2.5 / 9) <= EXACT

    def test_lime_two_players_absent(self):
        assert Lime().ic_bounds(2) == (None, None)

    def test_clime_two_players_tight(self):
        lower, upper = Clime(lam=0.25).ic_bounds(2)
        assert abs(lower - 3 / 16) <= EXACT
        assert lower == upper

    def test_clime_many_players_upper_only(self):
        lower, upper = Clime(lam=0.05).ic_bounds(4)
        assert lower is None
        assert abs(upper - 0.2) <= EXACT

    def test_glime_bounds(self):
        lower, upper = Glime().ic_bounds(4)
        assert abs(lower - (0.25 - 1 / 8 + 1 / 64)) <= EXACT
        assert abs(upper - (0.5 - 3 / 16 + 1 / 64)) <= EXACT


class TestFixtureGaps:
    def test_dict_gap_near_analytic_limit(self):
        for n in (3, 5):
            game = GameSpec(n, Dictator())
            gap = intervention_gap(game, adversarial_profile("dict", n, 1e-4))
            want = 0.5 - 3.0 / (4 * n) + 1.0 / (4 * n * n)
            assert abs(gap - want) <= 1e-3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_lime_gap_exact_formula(self, n):
        eps, delta = 1e-3, 1e-3
        game = GameSpec(n, Lime(epsilon=eps))
        gap = intervention_gap(game, adversarial_profile("lime", n, delta))
        want = (1.0 - eps / 2) * ((2 * n - 4.0) / (n * n) - 2 * delta * delta)
        assert abs(gap - want) <= 1e-6

    @pytest.mark.parametrize("n", range(2, 9))
    def test_glime_gap_exact_formula(self, n):
        game = GameSpec(n, Glime(epsilon=1e-3))
        gap = intervention_gap(game, adversarial_profile("glime", n))
        want = 0.25 - 1.0 / (2 * n) + 1.0 / (4 * n * n)
        assert abs(gap - want) <= 1e-9


class TestIcSearch:
    def test_nime_search_is_zero(self):
        est = ic_search(GameSpec(4, Nime()), budget=50, seed=0)
        assert est.search_lower == 0.0

    def test_clime_two_player_value(self):
        lam = 1 / 8
        est = ic_search(GameSpec(2, Clime(lam=lam, epsilon=1e-12)), budget=3000, seed=0)
        assert abs(est.search_lower - (lam - lam * lam)) <= 1e-3

    def test_dict_two_player_search_reaches_quarter(self):
        # No fixture exists for two players; random search plus ascent must
        # still find the fully-spread profile worth exactly 1/4.
        est = ic_search(GameSpec(2, Dictator()), budget=3000, seed=0)
        assert est.fixture_lower is None
        assert abs(est.search_lower - 0.25) <= 1e-3

    def test_deterministic_given_seed(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        a = ic_search(game, budget=500, seed=42)
        b = ic_search(game, budget=500, seed=42)
        assert a == b

    def test_fixture_within_search(self):
        est = ic_search(GameSpec(4, Glime(epsilon=1e-3)), budget=300, seed=1)
        assert est.search_lower >= est.fixture_lower - 1e-9

    def test_upper_bound_respected(self):
        est = ic_search(GameSpec(4, Lime(epsilon=1e-3)), budget=2000, seed=2)
        assert est.search_lower <= est.analytic_upper + 1e-9

    def test_json_schema(self):
        est = ic_search(GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3)), budget=50, seed=0)
        blob = json.loads(json.dumps(est.to_json()))
        assert set(blob) == {
            "mediator",
            "n",
            "seed",
            "budget",
            "searchLower",
            "fixtureLower",
            "analyticLower",
            "analyticUpper",
            "argmaxProfile",
        }
        assert blob["mediator"]["kind"] == "clime"
        assert len(blob["argmaxProfile"]) == 2

    def test_numpy_integer_game_serializes(self):
        # The game kept numpy's int64 as its n, which json.dumps rejects.
        est = ic_search(GameSpec(np.int64(3), Lime()), budget=np.int64(10), seed=np.uint8(1))
        blob = json.loads(json.dumps(est.to_json()))
        assert (blob["n"], blob["budget"], blob["seed"]) == (3, 10, 1)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            ic_search(GameSpec(2, Nime()), budget=0)

    @pytest.mark.parametrize(
        "budget, threads",
        [(300, 0), (300, -3), (300, 2.5), (2.5, 1), (True, 1), (10**8 + 1, 1)],
        ids=["threads-0", "threads-negative", "threads-fraction", "budget-fraction", "budget-bool", "budget-over-cap"],
    )
    def test_budget_and_threads_must_be_positive_integers(self, budget, threads, monkeypatch):
        # Refused before a single gap is priced, however large the budget.
        monkeypatch.setattr(metrics, "_gap_locs", None)
        monkeypatch.setattr(metrics, "_cost_rows", None)
        monkeypatch.setattr(metrics, "_twin_rows", None)
        with pytest.raises(ValueError):
            ic_search(GameSpec(3, Lime(epsilon=1e-3)), budget, threads=threads)

    @pytest.mark.parametrize("kind", ["dict", "lime", "glime"])
    def test_ascent_searches_each_line_once(self, kind, monkeypatch):
        # A coordinate's line depends on the other coordinates only, so
        # searching it again before one of them moves would repeat a search.
        # A line is told apart by its coordinate (the line function's default
        # argument) and its gaps at three fixed points.
        lines = []
        golden_max = metrics._golden_max

        def recording(f, *args, **kwargs):
            lines.append((f.__defaults__, f(0.21), f(0.52), f(0.83)))
            return golden_max(f, *args, **kwargs)

        monkeypatch.setattr(metrics, "_golden_max", recording)
        est = ic_search(GameSpec(4, _MEDIATORS[kind]()), budget=300, seed=11)
        assert len(lines) >= 4 and len(set(lines)) == len(lines)
        monkeypatch.setattr(metrics, "_golden_max", golden_max)
        assert ic_search(GameSpec(4, _MEDIATORS[kind]()), budget=300, seed=11) == est

    @pytest.mark.parametrize(
        "kind, n, sweeps, phase",
        [("lime", 3, 0, "fixture"), ("glime", 3, 0, "random"), ("glime", 3, metrics._SWEEPS, "ascent"), ("nime", 2, 0, "random")],
    )
    def test_search_logs_what_it_did(self, kind, n, sweeps, phase, monkeypatch, caplog):
        # One DEBUG record per search: rows drawn, twin rows priced, line
        # searches run and skipped, ascent gap evaluations and the phase
        # that set the argmax; nothing at INFO, and the estimate unchanged.
        game = GameSpec(n, _MEDIATORS[kind]())
        monkeypatch.setattr(metrics, "_SWEEPS", sweeps)
        with caplog.at_level(logging.INFO, logger="hotelling_mediators"):
            quiet = ic_search(game, budget=3000, seed=6)
        assert not caplog.records
        calls = []
        gap_locs = metrics._gap_locs
        monkeypatch.setattr(metrics, "_gap_locs", lambda game, locs: calls.append(locs) or gap_locs(game, locs))
        for threads in (1, 2):
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="hotelling_mediators"):
                assert ic_search(game, budget=3000, seed=6, threads=threads) == quiet
            [record] = [r for r in caplog.records if r.name == "hotelling_mediators"]
            assert record.levelno == logging.DEBUG
            _, budget, _, drawn, twins, lines, skipped, evaluations, set_by = record.args
            fixtures = len(calls) - evaluations
            assert (budget, drawn, set_by) == (3000, 3000, phase)
            assert 1 <= twins <= drawn
            assert fixtures == (len(metrics._FIXTURE_DELTAS) if kind != "nime" else 0)
            if sweeps:
                # Every sweep searches or skips every line, and the first
                # searches them all.
                assert lines >= n and (lines + skipped) % n == 0
                assert evaluations > lines
            else:
                assert lines == skipped == evaluations == 0

    @pytest.mark.parametrize("kind", ["dict", "lime"])
    def test_a_fixture_offset_out_of_range_skips_only_itself(self, kind, monkeypatch):
        # At n = 50 the offset 1e-2 is not below 1/(2n), but the smaller
        # offsets are valid fixtures and must still be priced.
        monkeypatch.setattr(metrics, "_SWEEPS", 0)
        game = GameSpec(50, _MEDIATORS[kind]())
        gaps = []
        for delta in metrics._FIXTURE_DELTAS:
            try:
                gaps.append(intervention_gap(game, adversarial_profile(kind, 50, delta)))
            except ValueError:
                assert delta >= 1 / 100
        assert 0 < len(gaps) < len(metrics._FIXTURE_DELTAS)
        assert ic_search(game, budget=1).fixture_lower == max(gaps)

    @pytest.mark.parametrize("n", [3, 4])
    def test_clime_search_below_width_bound(self, n):
        # With two protected intervals of half-width lam, the damage of
        # intervening is capped by their total length.
        lam = 1 / 16
        est = ic_search(GameSpec(n, Clime(lam=lam, epsilon=1e-3)), budget=3000, seed=4)
        assert est.analytic_upper == 4 * lam
        assert est.search_lower <= 4 * lam + 1e-9


class TestSeeds:
    @pytest.mark.parametrize("seed", [1.5, -1, None, True, "0", np.float64(2.0)])
    @pytest.mark.parametrize(
        "entry",
        [
            lambda seed: ic_search(GameSpec(2, Lime(epsilon=1e-3)), budget=10, seed=seed),
            lambda seed: neutrality_check(GameSpec(2, Dictator()), 10, seed=seed),
            lambda seed: better_response_dynamics(GameSpec(2, Nime()), (0.1, 0.9), max_steps=3, seed=seed),
            lambda seed: mc_payoff(GameSpec(2, Nime()), (0.2, 0.8), n_samples=100, seed=seed),
            lambda seed: mc_social_cost(GameSpec(2, Nime()), (0.2, 0.8), n_samples=100, seed=seed),
        ],
        ids=["ic_search", "neutrality_check", "better_response_dynamics", "mc_payoff", "mc_social_cost"],
    )
    def test_seed_must_be_a_nonnegative_integer(self, entry, seed):
        # 1.5 raised numpy's TypeError, -1 numpy's own ValueError, and None
        # gave an unreproducible result that reported "seed": null.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            entry(seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        assert ic_search(game, budget=50, seed=np.int64(3)) == ic_search(game, budget=50, seed=3)


class TestMonteCarloOracle:
    @pytest.mark.parametrize(
        "mediator",
        [Nime(), Dictator(), Lime(epsilon=1e-3), Glime(epsilon=1e-3), Clime(lam=1 / 8, epsilon=1e-3)],
        ids=["nime", "dict", "lime", "glime", "clime"],
    )
    def test_social_cost_within_three_sigma(self, mediator):
        rng = np.random.default_rng(31)
        game = GameSpec(4, mediator)
        profile = tuple(rng.random(4))
        exact = social_cost(game, profile)
        est, se = mc_social_cost(game, profile, n_samples=100_000, seed=77)
        assert abs(exact - est) <= 3.0 * se

    @settings(max_examples=25)
    @given(COORDS)
    def test_sampling_agrees_with_exact_integration(self, coords):
        # Each estimate is within 5 standard errors of the exact value.  A
        # share no sample lands in has a sample standard error of 0, so the
        # error is floored at sqrt(x (1 - x) / N), which bounds the standard
        # error of a mean of N weights or costs in [0, 1] with mean x; the
        # 1e-12 term covers weights that are constant and exact.
        samples = 2000

        def close(x, est, se):
            return abs(x - est) <= 5.0 * max(se, math.sqrt(max(x * (1.0 - x), 0.0) / samples)) + 1e-12

        for game in PROPERTY_GAMES:
            profile = anchored(game, coords)
            est, se = mc_payoff(game, profile, samples)
            assert all(map(close, payoff(game, profile), est, se)), (game, profile, est, se)
            est, se = mc_social_cost(game, profile, samples)
            assert close(social_cost(game, profile), est, se), (game, profile, est, se)

    def test_unsampled_share_has_a_positive_standard_error(self):
        # No sample lands in the first player's exact share of 3.05e-5, so its
        # weights are all 0; only the other players' errors are sampled.
        game = GameSpec(4, Nime())
        profile = (0.0, 0.903779648293997, 0.903779648293997, 6.103515625e-05)
        est, se = mc_payoff(game, profile, 2000, 7)
        _, W = metrics._mc_samples(game, metrics._snapped(game, profile), 2000, 7)
        assert est[0] == 0.0 and np.all(W[:, 0] == 0.0)
        x = 1 / 2002
        assert se[0] == math.sqrt(x * (1 - x) / 2000)
        assert abs(payoff(game, profile)[0] - est[0]) <= se[0]
        assert np.array_equal(se[1:], W[:, 1:].std(axis=0, ddof=1) / math.sqrt(2000))

    @pytest.mark.parametrize("n_samples", [0, 1, 2.5, True, -3])
    def test_sample_count_must_be_an_integer_of_at_least_two(self, n_samples):
        # 0 and 1 returned NaN with RuntimeWarnings; 2.5 raised numpy's TypeError.
        game = GameSpec(3, Lime(epsilon=1e-3))
        for estimate in (mc_payoff, mc_social_cost):
            with pytest.raises(ValueError):
                estimate(game, (0.2, 0.5, 0.9), n_samples=n_samples)

    def test_payoff_estimates_sum_to_one(self):
        game = GameSpec(3, Glime(epsilon=1e-3))
        est, _ = mc_payoff(game, (0.2, 0.5, 0.9), n_samples=50_000, seed=5)
        assert abs(est.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "mediator",
        [Nime(), Dictator(), Lime(epsilon=1e-3), Glime(epsilon=1e-3), Clime(lam=1 / 8, epsilon=1e-3)],
        ids=["nime", "dict", "lime", "glime", "clime"],
    )
    def test_vectorized_rule_matches_scalar_rule(self, mediator):
        # The sampling estimator re-implements the direction rules over numpy;
        # both codings must agree pointwise.
        from hotelling_mediators import direct
        from hotelling_mediators.metrics import direction_weights

        rng = np.random.default_rng(41)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            game = GameSpec(n, mediator)
            profile = tuple(rng.random(n))
            ts = rng.random(500)
            W = direction_weights(game, profile, ts)
            for k in (0, 123, 249, 404, 499):
                want = direct(game, profile, float(ts[k]))
                assert all(abs(a - b) <= 1e-12 for a, b in zip(W[k], want))
