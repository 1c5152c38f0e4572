"""Pointwise direction rules and compiled piecewise policies."""

import ast
import math
import sys
import threading
from bisect import bisect_right
from pathlib import Path

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
    PiecewiseLinearDensity,
    UNIFORM,
    compile_policy,
    direct,
    intervention_gap,
    optimal_locations,
    payoff,
    quantile_locations,
    social_cost,
    validate_profile,
)
from hotelling_mediators import mediators, metrics
from hotelling_mediators.core import _MEDIATORS, _PII_FACILITY_SNAP
from hotelling_mediators.mediators import _compiled_pieces, _snap_rows, _snap_to_endpoints

from test_metrics import _counting_prefixes
from test_policy_reference import COORDS, DENSITIES, PROPERTY_GAMES, ZIGZAG, _custom_dictator, _mediators, _profiles, anchored

TOL = 1e-12

RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))

# Four-player walkthrough profile: one facility left of every protected
# interval, one inside the first, one at an interval edge, one inside the last.
WALK4 = (1 / 16, 4 / 16, 10 / 16, 12 / 16)


# Records of every registered kind, default and non-default parameters; a
# kind missing here fails the registry-driven tests below.
SAMPLES = {
    "nime": [Nime()],
    "dict": [Dictator(), Dictator(targets=(0.2, 0.8), equality_tol=1e-9), Dictator(equality_tol=1e-6)],
    "lime": [Lime(), Lime(epsilon=0.01)],
    "glime": [Glime(), Glime(epsilon=0.02)],
    "clime": [Clime(lam=0.05), Clime(lam=0.125, epsilon=0.001), Clime(lam=0.01, epsilon=0.1)],
}


def close(a, b, tol=TOL):
    return all(abs(x - y) <= tol for x, y in zip(a, b))


class TestNime:
    def test_nearest(self):
        assert direct(GameSpec(2, Nime()), (0.25, 0.75), 0.1) == (1.0, 0.0)

    def test_symmetric_tie(self):
        assert direct(GameSpec(2, Nime()), (0.25, 0.75), 0.5) == (0.5, 0.5)

    def test_paired_tie_split(self):
        assert direct(GameSpec(3, Nime()), (0.3, 0.3, 0.9), 0.2) == (0.5, 0.5, 0.0)


class TestDict:
    def test_all_disobey_uniform(self):
        targets = optimal_locations(2)
        for t in (0.0, 0.3, 0.99):
            assert direct(GameSpec(2, Dictator(targets)), (0.0, 1.0), t) == (0.5, 0.5)

    def test_single_obeyer_takes_all(self):
        assert direct(GameSpec(2, Dictator(optimal_locations(2))), (0.25, 0.9), 0.95) == (1.0, 0.0)

    def test_both_obey_nearest(self):
        assert direct(GameSpec(2, Dictator(optimal_locations(2))), (0.25, 0.75), 0.6) == (0.0, 1.0)


LIME4 = GameSpec(4, Lime(epsilon=0.1))


class TestLimeWalkthrough:
    def test_interval_with_both_sides(self):
        assert direct(LIME4, WALK4, 3 / 16) == (1.0, 0.0, 0.0, 0.0)

    def test_facility_at_interval_edge_serves(self):
        assert direct(LIME4, WALK4, 8 / 16) == (0.0, 0.0, 1.0, 0.0)

    def test_one_sided_interval_mixes_random(self):
        got = direct(LIME4, WALK4, 13 / 16)
        assert close(got, (0.025, 0.025, 0.925, 0.025))

    def test_outside_intervals_nearest(self):
        assert direct(LIME4, WALK4, 0.5 / 16) == (1.0, 0.0, 0.0, 0.0)


class TestGlime:
    def test_half_half_inside_interval(self):
        got = direct(GameSpec(3, Glime(epsilon=1e-3)), (1 / 6, 0.5, 5 / 6), 1 / 3)
        assert close(got, (0.5, 0.5, 0.0))

    def test_outside_intervals_nearest(self):
        assert direct(GameSpec(3, Glime(epsilon=1e-3)), (1 / 6, 0.5, 5 / 6), 0.1) == (1.0, 0.0, 0.0)

    def test_ramp_density_quantile_intervals(self):
        profile = quantile_locations(2, RAMP)
        got = direct(GameSpec(2, Glime(epsilon=1e-3), RAMP), profile, 0.7)
        assert close(got, (0.5, 0.5))


class TestClime:
    def test_equidistant_over_edge_facilities(self):
        assert direct(GameSpec(2, Clime(lam=0.25, epsilon=1e-3)), (0.25, 0.75), 0.5) == (0.5, 0.5)

    def test_one_sided_interval_mixes_random(self):
        got = direct(GameSpec(2, Clime(lam=0.25, epsilon=0.1)), (0.0, 0.5), 0.4)
        assert close(got, (0.95, 0.05))

    def test_four_player_edge_tie(self):
        got = direct(GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3)), optimal_locations(4), 0.25)
        assert close(got, (0.5, 0.5, 0.0, 0.0))


class TestPiiIntervals:
    def test_lime_four_players(self):
        assert Lime().intervals(4, UNIFORM) == (
            (2 / 16, 6 / 16),
            (6 / 16, 10 / 16),
            (10 / 16, 14 / 16),
        )

    def test_clime_two_players_single_interval(self):
        assert Clime(lam=1 / 8).intervals(2, UNIFORM) == ((3 / 8, 5 / 8),)

    def test_nime_empty(self):
        assert Nime().intervals(5, UNIFORM) == ()
        assert Dictator().intervals(3, UNIFORM) == ()

    def test_glime_uses_distribution(self):
        got = Glime().intervals(2, RAMP)
        assert abs(got[0][0] - 0.5) <= TOL
        assert abs(got[0][1] - math.sqrt(3) / 2) <= TOL

    def test_intervals_disjoint_inside_unit(self):
        for kind in _MEDIATORS:
            games = 0
            for mediator in SAMPLES[kind]:
                for n in range(2, 9):
                    for dist in (UNIFORM, RAMP):
                        try:
                            game = GameSpec(n, mediator, dist)
                        except ValueError:  # the record does not fit n players
                            continue
                        games += 1
                        piis = game.piis
                        assert piis == game.mediator.intervals(n, dist)
                        for lo, hi in piis:
                            assert 0.0 < lo < hi < 1.0
                        for (a, b), (c, d) in zip(piis, piis[1:]):
                            assert b <= c
            assert games >= 14, kind

    def test_fixture_is_an_n_profile_or_value_error(self):
        for kind, record in _MEDIATORS.items():
            for n in range(2, 9):
                for delta in (1e-3, 1e-2, 0.2):
                    try:
                        profile = record.fixture(n, delta)
                    except ValueError:
                        continue
                    assert validate_profile(profile, n) == profile, (kind, n, delta)


class TestCompiledPolicy:
    def test_nime_two_pieces(self):
        pol = compile_policy(GameSpec(2, Nime()), (0.25, 0.75))
        assert pol.pieces == (
            (0.0, 0.5, (1.0, 0.0)),
            (0.5, 1.0, (0.0, 1.0)),
        )
        # The tie at the midpoint is recorded pointwise.
        assert pol.point_dists[0.5] == (0.5, 0.5)
        assert pol.evaluate(0.5) == (0.5, 0.5)
        assert pol.evaluate(0.49) == (1.0, 0.0)

    def test_lime_walkthrough_piece(self):
        pol = compile_policy(GameSpec(4, Lime(epsilon=0.1)), WALK4)
        assert pol.evaluate(3 / 16) == (1.0, 0.0, 0.0, 0.0)

    def test_dict_everyone_disobeys_single_piece(self):
        pol = compile_policy(GameSpec(2, Dictator()), (0.0, 1.0))
        assert pol.piece_dists == ((0.5, 0.5),)

    def test_degenerate_profile(self):
        pol = compile_policy(GameSpec(3, Nime()), (0.4, 0.4, 0.4))
        third = 1.0 / 3.0
        assert all(close(d, (third, third, third)) for d in pol.piece_dists)

    @settings(max_examples=50)
    @given(COORDS)
    def test_pieces_partition_the_segment_into_distributions(self, coords):
        for game in PROPERTY_GAMES:
            profile = anchored(game, coords)
            pol = compile_policy(game, profile)
            bps = pol.breakpoints
            assert bps[0] == 0.0 and bps[-1] == 1.0, (game, profile)
            assert all(a < b for a, b in zip(bps, bps[1:])), (game, profile)
            assert len(pol.piece_dists) == len(bps) - 1
            for d in pol.piece_dists:
                assert min(d) >= 0.0 and abs(sum(d) - 1.0) <= 1e-12, (game, profile, d)


def _cleared(monkeypatch):
    """Empty the compile memo, as at import."""
    monkeypatch.setattr(mediators, "_last_compile", (None, None, None))


def _counting_binds(monkeypatch):
    """Count the rule bindings, one per compile that misses the memo."""
    calls = []
    bind = mediators._bind_rule

    def counted(game, locs):
        calls.append(locs)
        return bind(game, locs)

    monkeypatch.setattr(mediators, "_bind_rule", counted)
    return calls


def _same(got, want):
    # repr round-trips every float, and so tells -0.0 from 0.0 and a numpy
    # float64 from a float: equal reprs are the same values, bit for bit.
    assert repr(got) == repr(want), (got, want)


class TestCompileMemo:
    """``_compiled_pieces`` keeps its last compile, keyed on the game object
    and the input floats bit for bit."""

    def _fresh(self, monkeypatch, game, locs):
        _cleared(monkeypatch)
        locs, bps, pieces, *_ = _compiled_pieces(game, locs)
        return locs, bps, pieces

    @pytest.mark.parametrize("game", [GameSpec(3, Nime()), GameSpec(3, Lime(epsilon=0.1)), GameSpec(3, Dictator())])
    def test_signed_zeros_do_not_share_a_compile(self, game, monkeypatch):
        # The two profiles are equal, and so one dict key: keep them apart.
        cases = [(locs, self._fresh(monkeypatch, game, locs)) for locs in ((0.0, 0.5, 0.9), (-0.0, 0.5, 0.9))]
        assert math.copysign(1.0, cases[1][1][0][0]) == -1.0
        _cleared(monkeypatch)
        for locs, want in cases + cases:
            _same(_compiled_pieces(game, locs)[:3], want)
            _same(_compiled_pieces(game, locs)[:3], want)

    def test_numpy_floats_do_not_share_a_compile(self, monkeypatch):
        game = GameSpec(3, Lime())
        calls = _counting_binds(monkeypatch)
        _cleared(monkeypatch)
        _compiled_pieces(game, (0.1, 0.5, 0.9))
        locs, *_ = _compiled_pieces(game, tuple(np.array([0.1, 0.5, 0.9])))
        assert len(calls) == 2 and all(type(x) is np.float64 for x in locs)

    def test_equal_games_do_not_share_a_compile(self, monkeypatch):
        first, second = GameSpec(3, Lime()), GameSpec(3, Lime())
        assert first == second and first is not second
        calls = _counting_binds(monkeypatch)
        _cleared(monkeypatch)
        locs = (0.1, 0.5, 0.9)
        _compiled_pieces(first, locs)
        _compiled_pieces(first, locs)
        assert len(calls) == 1
        _compiled_pieces(second, locs)
        assert len(calls) == 2

    def test_a_gap_first_keeps_the_mediator_compile(self, monkeypatch):
        # The no-intervention twin is compiled outside the kept compile, so
        # a gap asked for first leaves the mediator's compile, and its
        # prefix memo, for the payoff and social cost that follow.
        game = GameSpec(4, Lime(), ZIGZAG)
        profile = (0.1, 0.3, 0.6, 0.9)
        calls = _counting_binds(monkeypatch)
        seen = _counting_prefixes(monkeypatch)
        for order in ((payoff, social_cost, intervention_gap), (intervention_gap, payoff, social_cost)):
            _cleared(monkeypatch)
            calls.clear()
            seen.clear()
            for query in order:
                query(game, profile)
            assert len(calls) == 2 and len(seen) == len(set(seen)) == 12, (order, calls, seen)

    def test_a_kept_compile_prices_each_cost_once(self, monkeypatch):
        # Social cost, then the gap twice: the mediator's cost is priced
        # once and shared, the twin's once, and a repeated gap prices
        # nothing; every value is a fresh compile's, bit for bit.
        game = GameSpec(4, Lime())
        profile = (0.1, 0.3, 0.6, 0.9)
        queries = (social_cost, intervention_gap, intervention_gap)
        want = []
        for query in queries:
            _cleared(monkeypatch)
            want.append(query(game, profile))
        calls = []
        cost = metrics._cost

        def counting(compiled, abs_moment):
            calls.append(compiled[0])
            return cost(compiled, abs_moment)

        monkeypatch.setattr(metrics, "_cost", counting)
        _cleared(monkeypatch)
        _same([query(game, profile) for query in queries], want)
        assert len(calls) == 2, calls

    def test_the_memo_holds_one_compile(self, monkeypatch):
        game = GameSpec(3, Glime(), RAMP)
        a, b = (0.1, 0.5, 0.9), (0.2, 0.5, 0.9)
        calls = _counting_binds(monkeypatch)
        _cleared(monkeypatch)
        for locs in (a, b, a):
            _compiled_pieces(game, locs)
        assert len(calls) == 3
        _compiled_pieces(game, a)
        assert len(calls) == 3

    def test_a_mutated_list_is_compiled_again(self, monkeypatch):
        game = GameSpec(3, Lime())
        locs = [0.1, 0.5, 0.9]
        _cleared(monkeypatch)
        _compiled_pieces(game, locs)
        locs[0] = 0.2
        got = _compiled_pieces(game, locs)[:3]
        _same(got, self._fresh(monkeypatch, game, (0.2, 0.5, 0.9)))

    def test_the_shared_result_is_immutable(self, monkeypatch):
        _cleared(monkeypatch)
        locs, bps, pieces, *_ = _compiled_pieces(GameSpec(3, Lime()), [0.1, 0.5, 0.9])
        assert type(locs) is tuple and type(bps) is tuple and type(pieces) is tuple

    def test_threads_never_share_a_result(self, monkeypatch):
        # Each thread compiles its own profiles while the others replace
        # the memo; a result paired with another thread's key would show.
        game = GameSpec(4, Lime(epsilon=0.1))
        rng = np.random.default_rng(31)
        profiles = [[tuple(rng.random(4)) for _ in range(3)] for _ in range(6)]
        want = {}
        for locs in (p for own in profiles for p in own):
            _cleared(monkeypatch)
            want[locs] = repr(_compiled_pieces(game, locs)[:3])
        wrong = []

        def work(own):
            for k in range(1000):
                locs = own[k // 2 % len(own)]
                if repr(_compiled_pieces(game, locs)[:3]) != want[locs]:
                    wrong.append(locs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(own,)) for own in profiles]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []

    def test_a_replaced_compile_is_priced_with_a_fresh_memo(self, monkeypatch):
        # Another caller replaces the slot between a compile and its memo
        # lookup, as a thread switch can, with a compile under another
        # density whose memo holds this compile's piece ends.
        games = [GameSpec(3, Lime(epsilon=0.1), RAMP), GameSpec(3, Lime(epsilon=0.1), ZIGZAG)]
        profile = (0.1, 0.45, 0.9)
        want = []
        for game in games:
            _cleared(monkeypatch)
            want.append(repr([payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile)]))
        compile_ = mediators._compiled_pieces

        def interleaved(game, locs):
            result = compile_(game, locs)
            other = games[game is games[0]]
            mass, _ = other.distribution._integrals(compile_(other, locs)[4])
            for lo, hi, _ in result[2]:
                mass(lo, hi)
            return result

        monkeypatch.setattr(metrics, "_compiled_pieces", interleaved)
        for game, expected in zip(games, want):
            assert repr([payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile)]) == expected

    def test_threads_never_share_a_prefix_memo(self, monkeypatch):
        # Two games with one profile set but different densities: a thread
        # pricing with the prefix memo of the other game's compile, or of
        # another profile's, would read the other density's prefixes.
        games = [GameSpec(4, Lime(epsilon=0.1), RAMP), GameSpec(4, Glime(epsilon=0.1), ZIGZAG)]
        rng = np.random.default_rng(37)
        locs = [tuple(rng.random(4)) for _ in range(3)]
        jobs = [(game, p) for game in games for p in locs]
        queries = (payoff, social_cost, intervention_gap)
        want = {}
        for game, p in jobs:
            _cleared(monkeypatch)
            want[id(game), p] = repr([query(game, p) for query in queries])
        wrong = []

        def work(k0):
            for k in range(300):
                game, p = jobs[(k0 + k // 3) % len(jobs)]
                if repr([query(game, p) for query in queries]) != want[id(game), p]:
                    wrong.append((game, p))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k0,)) for k0 in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []

    def test_queries_agree_in_any_order(self, monkeypatch):
        queries = {"payoff": payoff, "social_cost": social_cost, "intervention_gap": intervention_gap}
        compile_ = mediators._compiled_pieces

        def fresh(game, locs):
            mediators._last_compile = (None, None, None)
            return compile_(game, locs)

        rng = np.random.default_rng(29)
        _cleared(monkeypatch)
        for game in PROPERTY_GAMES:
            for coords in ([0.0, *rng.random(4)], [-0.0, *rng.random(4)], list(rng.integers(0, 16, 5))):
                profile = anchored(game, [c if isinstance(c, float) else int(c) for c in coords])
                # Every compile from an empty memo, even within one query.
                with monkeypatch.context() as patch:
                    patch.setattr(metrics, "_compiled_pieces", fresh)
                    want = {name: query(game, profile) for name, query in queries.items()}
                for order in ([*queries], [*queries][::-1], ["intervention_gap", "payoff", "social_cost"]):
                    _cleared(monkeypatch)
                    for name in order + order:
                        _same(queries[name](game, profile), want[name])


def _random_game(rng, n):
    kind = rng.integers(5)
    if kind == 0:
        return GameSpec(n, Nime())
    if kind == 1:
        return GameSpec(n, Dictator())
    if kind == 2:
        return GameSpec(n, Lime(epsilon=1e-3))
    if kind == 3:
        return GameSpec(n, Glime(epsilon=1e-3))
    return GameSpec(n, Clime(lam=1 / 8, epsilon=1e-3))


# The property games plus clime games whose intervals are narrower than the
# facility snap band, so that one facility lies in the band of both ends.
SNAP_GAMES = PROPERTY_GAMES + [GameSpec(n, Clime(lam=lam)) for n in (2, 3) for lam in (1e-8, 3e-8)]

# Five coordinates, each a uniform draw or an offset from the k-th interval
# endpoint of a game.
NEAR_ENDS = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.tuples(st.integers(0, 15), st.floats(-3e-7, 3e-7))), min_size=5, max_size=5
)


def near_ends(game, coords):
    """The profile of ``game`` that reads the first n of ``coords``, an
    offset ``(k, d)`` as the k-th (cyclically) interval endpoint plus d,
    clipped to [0, 1]."""
    ends = [e for pii in game.piis for e in pii] or [0.5]
    return tuple(
        c if isinstance(c, float) else min(max(ends[c[0] % len(ends)] + c[1], 0.0), 1.0) for c in coords[: game.n]
    )


class TestSnapping:
    @settings(max_examples=50)
    @given(NEAR_ENDS)
    def test_snapping_is_idempotent_and_rows_agree(self, coords):
        for game in SNAP_GAMES:
            profile = near_ends(game, coords)
            once = _snap_to_endpoints(game, profile)
            assert _snap_to_endpoints(game, once) == once, (game, profile)
            rows = _snap_rows(game, np.array([profile, once]))
            assert rows.tolist() == [list(once), list(once)], (game, profile)

    def test_nearest_endpoint_wins(self):
        # Clime n = 3, lambda = 1e-8: the first interval spans 2e-8, so a
        # facility inside lies in the snap band of both ends.  It snaps to
        # the nearer end, and from the midpoint to the lower one; snapped, it
        # stays, and its payoff is the snapped profile's.
        game = GameSpec(3, Clime(lam=1e-8))
        (lo, hi), _ = game.piis
        profile = (lo + 5e-9, 0.5, 0.9)
        assert _snap_to_endpoints(game, profile) == (lo, 0.5, 0.9)
        assert _snap_to_endpoints(game, (hi - 5e-9, 0.5, 0.9)) == (hi, 0.5, 0.9)
        assert _snap_to_endpoints(game, (0.5 * (lo + hi), 0.5, 0.9))[0] == lo
        assert payoff(game, profile) == payoff(game, (lo, 0.5, 0.9))


def _rebuilt_line_kinks(game, locs, i):
    """:func:`mediators._line_kinks` as it stood when it rebuilt the
    endpoints, snap bands and reflection centres on every call."""
    locs = _snap_to_endpoints(game, locs)
    opponents = [z for j, z in enumerate(locs) if j != i]
    breaks, _ = game.distribution.line_shape
    ends = [e for pii in game.piis for e in pii]
    lows = [-math.inf] + [e - _PII_FACILITY_SNAP for e in ends]
    highs = [-math.inf] + [e + _PII_FACILITY_SNAP for e in ends]
    kinks = {0.0, 1.0, *opponents, *breaks, *ends, *lows[1:], *highs[1:], *game.mediator.switch_points(locs, i)}
    kinks.update([2.0 * c - z for c in (*ends, *breaks) for z in opponents])
    kinks = sorted([k for k in kinks if 0.0 <= k <= 1.0])
    return kinks, [(a, b) for a, b in zip(kinks, kinks[1:]) if b > highs[bisect_right(lows, a) - 1]]


@pytest.mark.parametrize("density", ["uniform", "zigzag"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_line_kinks_restrict_the_fixed_families(n, density):
    # Profiles on endpoints, inside and outside their snap bands, and a
    # hair off the dictated targets or quantiles: the game's families,
    # restricted to each line, give the per-call rebuild's kinks and spans,
    # down to the type and sign of every float.
    rng = np.random.default_rng([n, len(density), 31])
    for name, mediator in _mediators(n).items():
        game = GameSpec(n, mediator, DENSITIES[density])
        anchors = game.mediator.targets or quantile_locations(n, game.distribution)
        near = [tuple(min(max(a + float(rng.choice([-1e-9, 0.0, 1e-9])), 0.0), 1.0) for a in anchors) for _ in range(4)]
        for profile in _profiles(rng, game, 12) + near:
            for i in range(n):
                want = repr(_rebuilt_line_kinks(game, profile, i))
                assert repr(mediators._line_kinks(game, profile, i)) == want, (name, profile, i)


class TestPolicyAgreement:
    @pytest.mark.parametrize(
        "mediator",
        [Nime(), Dictator(), Lime(epsilon=1e-3), Glime(epsilon=1e-3), Clime(lam=1 / 8, epsilon=1e-3)],
        ids=["nime", "dict", "lime", "glime", "clime"],
    )
    def test_policy_matches_pointwise_rule(self, mediator):
        # Compiled policies must reproduce the pointwise rule everywhere:
        # 10^4 random (profile, t) pairs per mediator.
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            game = GameSpec(n, mediator)
            profile = tuple(rng.random(n))
            pol = compile_policy(game, profile)
            for t in rng.random(50):
                got = pol.evaluate(float(t))
                want = direct(game, profile, float(t))
                assert close(got, want), (game.mediator, profile, t)

    def test_distributions_are_probability_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            game = _random_game(rng, n)
            profile = tuple(rng.random(n))
            for _, _, d in compile_policy(game, profile).pieces:
                assert len(d) == n, (game, profile, d)
                assert all(0.0 <= x <= 1.0 for x in d), (game, profile, d)
                assert abs(sum(d) - 1.0) <= 1e-12, (game, profile, d)

    def test_rule_constant_inside_each_piece(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            game = _random_game(rng, n)
            profile = tuple(rng.random(n))
            for lo, hi, d in compile_policy(game, profile).pieces:
                for w in (0.21, 0.5, 0.86):
                    t = lo + w * (hi - lo)
                    if lo < t < hi:
                        assert close(direct(game, profile, t), d)


def _all_candidates(sites, piis, half_split):
    """The candidate set before the dead ones were dropped: 0 and 1, every
    adjacent-site midpoint and interval endpoint, and every interval's
    midpoint across it, half split or not."""
    points = {0.0, 1.0, *(0.5 * (a + b) for a, b in zip(sites, sites[1:]))}
    for lo, hi in piis:
        points.update((lo, hi))
        below = [s for s in sites if s <= lo]
        above = [s for s in sites if s >= hi]
        if below and above and lo < 0.5 * (below[-1] + above[0]) < hi:
            points.add(0.5 * (below[-1] + above[0]))
    return sorted(points)


def _live_set_cases():
    """``(game, profile, sites)`` over every kind and density at n = 2..5,
    8 and 16: mixed profiles (uniform draws, anchors, the 1/120 grid,
    duplicates, points by the interval endpoints), uniform draws and grid
    points; ``sites`` are the sorted distinct eligible locations."""
    for n in (2, 3, 4, 5, 8, 16):
        rng = np.random.default_rng([n, 25])
        for mediator in [*_mediators(n).values(), _custom_dictator(n)]:
            for density in DENSITIES.values():
                game = GameSpec(n, mediator, density)
                profiles = _profiles(rng, game, 12)
                profiles += [tuple(rng.random(n)) for _ in range(4)]
                profiles += [tuple(int(k) / 120 for k in rng.integers(121, size=n)) for _ in range(4)]
                for profile in profiles:
                    snapped = _snap_to_endpoints(game, profile)
                    yield game, profile, sorted(set(mediators._bind_rule(game, snapped)[1]))


LIVE_SET_CASES = list(_live_set_cases())


class TestLiveCandidates:
    """The compilers drop the candidates where the rule cannot switch."""

    def test_no_dead_candidate_is_kept(self):
        for game, profile, sites in LIVE_SET_CASES:
            bps = compile_policy(game, profile).point_dists
            for lo, hi in game.piis:
                below = [s for s in sites if s <= lo]
                above = [s for s in sites if s >= hi]
                if not (below or above):
                    continue
                # Only a cross midpoint, and none for a half split.
                cross = () if game.mediator.half_split or not (below and above) else (0.5 * (below[-1] + above[0]),)
                assert all(b in cross for b in bps if lo < b < hi), (game, profile, (lo, hi), sorted(bps))

    def test_policy_is_the_rule_at_dropped_candidates(self):
        dropped = 0
        for game, profile, sites in LIVE_SET_CASES:
            policy = compile_policy(game, profile)
            for t in set(_all_candidates(sites, game.piis, game.mediator.half_split)) - set(policy.point_dists):
                dropped += 1
                assert policy.evaluate(t) == direct(game, profile, t), (game, profile, t)
        assert dropped

    def test_prices_as_the_all_candidate_set(self, monkeypatch):
        for game, profile, _ in LIVE_SET_CASES:
            _cleared(monkeypatch)
            got = (*payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile))
            with monkeypatch.context() as patch:
                patch.setattr(mediators, "_policy_breakpoints", _all_candidates)
                _cleared(patch)
                want = (*payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile))
            assert close(got, want, 1e-15), (game, profile, got, want)


class TestRuleSymmetries:
    @pytest.mark.parametrize(
        "mediator",
        [Nime(), Lime(epsilon=1e-3), Glime(epsilon=1e-3), Clime(lam=1 / 8, epsilon=1e-3)],
        ids=["nime", "lime", "glime", "clime"],
    )
    def test_permutation_equivariance(self, mediator):
        rng = np.random.default_rng(19)
        game = GameSpec(4, mediator)
        for _ in range(200):
            profile = tuple(rng.random(4))
            t = float(rng.random())
            perm = rng.permutation(4)
            permuted = tuple(profile[perm[i]] for i in range(4))
            base = direct(game, profile, t)
            swapped = direct(game, permuted, t)
            assert all(swapped[i] == base[perm[i]] for i in range(4))

    @pytest.mark.parametrize(
        "mediator",
        [Nime(), Lime(epsilon=1e-3), Clime(lam=1 / 8, epsilon=1e-3)],
        ids=["nime", "lime", "clime"],
    )
    def test_reflection_symmetry(self, mediator):
        rng = np.random.default_rng(23)
        game = GameSpec(4, mediator)
        for _ in range(200):
            profile = tuple(rng.random(4))
            t = float(rng.random())
            mirrored = tuple(1.0 - s for s in profile)
            base = direct(game, profile, t)
            flipped = direct(game, mirrored, 1.0 - t)
            assert close(flipped, base)

    def test_lime_at_optimum_is_nearest(self):
        # With facilities on every interval edge, nobody is ever intervened.
        for n in range(2, 7):
            game = GameSpec(n, Lime(epsilon=1e-3))
            profile = optimal_locations(n)
            for t in np.linspace(0.001, 0.999, 500):
                assert direct(game, profile, float(t)) == direct(GameSpec(n, Nime()), profile, float(t))


# The mediator record and density classes.  Outside their own module and the
# Monte Carlo oracle, which re-implements the rules on purpose, code reads a
# record's or a density's fields and methods and never tests which class it is.
_RECORD_CLASSES = {"Mediator", "Nime", "Dictator", "_Limited", "Lime", "Glime", "Clime"}
_DENSITY_CLASSES = {"Uniform", "PiecewiseLinearDensity"}
_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hotelling_mediators"


def _checked_nodes(path):
    """Every syntax-tree node of ``path`` outside ``core.py`` and
    ``metrics._direction_weights``."""
    if path.name == "core.py":
        return []
    tree = ast.parse(path.read_text(), str(path))
    exempt = set()
    if path.name == "metrics.py":
        (oracle,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_direction_weights"]
        exempt = {id(node) for node in ast.walk(oracle)}
    return [node for node in ast.walk(tree) if id(node) not in exempt]


def _class_tests(path, classes):
    """``file:line`` of every ``isinstance`` call in ``path`` that names one
    of ``classes``, outside ``core.py`` and ``metrics._direction_weights``."""
    found = []
    for node in _checked_nodes(path):
        if not isinstance(node, ast.Call) or len(node.args) != 2:
            continue
        if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
        if names & classes:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_dispatches_on_the_record_class():
    paths = sorted(_PACKAGE.glob("*.py"))
    assert {p.name for p in paths} >= {"core.py", "mediators.py", "metrics.py", "equilibrium.py"}
    assert [hit for p in paths for hit in _class_tests(p, _RECORD_CLASSES)] == []


def test_no_module_reads_the_obedience_band():
    # Where a record's eligibility flips is its ``switch_points``; only the
    # record reads its own band.  The command line's flag of the same name,
    # ``args.equality_tol``, builds a record and reads none.
    hits = [
        f"{p.name}:{node.lineno}"
        for p in sorted(_PACKAGE.glob("*.py"))
        for node in _checked_nodes(p)
        if isinstance(node, ast.Attribute)
        and node.attr == "equality_tol"
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    ]
    assert hits == []


def _names(node):
    """The names a loop target or an iterated expression binds or reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _reads_piis(node):
    """Whether ``node`` is a game's intervals, ``x.piis`` or a local ``piis``."""
    return isinstance(node, ast.Attribute) and node.attr == "piis" or isinstance(node, ast.Name) and node.id == "piis"


def test_fixed_geometry_has_one_owner():
    # The game builds its endpoints, snap bands and kink families once
    # (``GameSpec``); no other path flattens the intervals into endpoints or
    # offsets an endpoint by the snap.  A comprehension over the intervals
    # rebuilds a family, and so does a loop over them whose body iterates
    # over its interval's ends; walking the intervals one at a time, as the
    # candidate sets do, is neither.  The Monte Carlo oracle stays exempt.
    hits = []
    for path in sorted(_PACKAGE.glob("*.py")):
        nodes = _checked_nodes(path)
        snap_readers = set()
        for node in nodes:
            if isinstance(node, ast.FunctionDef) and node.name in ("_snap_to_endpoints", "_snap_rows"):
                snap_readers |= {id(inner) for inner in ast.walk(node)}
        for node in nodes:
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                if any(_reads_piis(gen.iter) for gen in node.generators):
                    hits.append(f"{path.name}:{node.lineno} comprehension over piis")
            elif isinstance(node, ast.For) and _reads_piis(node.iter):
                ends = _names(node.target)
                inner = [n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, (ast.For, ast.comprehension))]
                if any(_names(n.iter) & ends for n in inner):
                    hits.append(f"{path.name}:{node.lineno} loop over the ends of piis")
            elif isinstance(node, ast.Name) and node.id == "_PII_FACILITY_SNAP" and id(node) not in snap_readers:
                hits.append(f"{path.name}:{node.lineno} reads _PII_FACILITY_SNAP")
    assert hits == []


def test_no_module_dispatches_on_the_density_class():
    paths = sorted(_PACKAGE.glob("*.py"))
    assert [hit for p in paths for hit in _class_tests(p, _DENSITY_CLASSES)] == []
