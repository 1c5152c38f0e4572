"""Equilibrium certification, enumeration, dynamics, and neutrality."""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    PiecewiseLinearDensity,
    best_response_gain,
    better_response_dynamics,
    candidate_deviations,
    is_pne,
    known_pne,
    neutrality_check,
    optimal_locations,
    payoff,
    pii_intervals,
    pne_enumerate,
    quantile_locations,
    social_cost,
)
from hotelling_mediators import equilibrium
from hotelling_mediators.equilibrium import _combos

RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
DELTA = 1e-6


def contains_all(candidates, points, tol=0.0):
    return all(any(abs(c - p) <= tol for c in candidates) for p in points)


class TestCandidates:
    def test_nime_pair_candidates(self):
        game = GameSpec(2, Nime())
        got = candidate_deviations(game, (0.5, 0.5), 0, grid_points=5)
        expected = [0.0, 0.5 - DELTA, 0.5, 0.5 + DELTA, 0.25, 0.75, 1.0, 0.25, 0.5, 0.75]
        assert contains_all(got, expected)

    def test_lime_interval_edges_probed(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        got = candidate_deviations(game, optimal_locations(3), 0)
        edges = [1 / 6, 0.5, 5 / 6]
        probes = edges + [e - DELTA for e in edges] + [e + DELTA for e in edges]
        assert contains_all(got, probes)

    def test_clime_lambda_edges_probed(self):
        game = GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3))
        got = candidate_deviations(game, (0.1, 0.9), 1)
        assert contains_all(got, [3 / 8 - DELTA, 3 / 8, 3 / 8 + DELTA, 5 / 8 - DELTA, 5 / 8, 5 / 8 + DELTA])

    def test_deduplicated_and_clipped(self):
        game = GameSpec(2, Nime())
        got = candidate_deviations(game, (0.0, 1.0), 0)
        assert len(got) == len(set(got))
        assert all(0.0 <= c <= 1.0 for c in got)


class TestBestResponse:
    def test_undercutting_gain(self):
        game = GameSpec(2, Nime())
        gain, where = best_response_gain(
            game, (0.25, 0.75), 0, candidate_deviations(game, (0.25, 0.75), 0)
        )
        assert abs(gain - 0.25) <= 1e-5
        assert abs(where - (0.75 - DELTA)) <= 1e-12

    def test_no_gain_at_limited_intervention_optimum(self):
        game = GameSpec(3, Lime(epsilon=1e-3))
        profile = optimal_locations(3)
        gain, _ = best_response_gain(game, profile, 1, candidate_deviations(game, profile, 1))
        assert gain <= 0.0

    def test_no_gain_under_dictated_targets(self):
        game = GameSpec(2, Dictator())
        profile = (0.25, 0.75)
        gain, _ = best_response_gain(game, profile, 0, candidate_deviations(game, profile, 0))
        assert gain <= 0.0


class TestIsPne:
    def test_lime_optimum_certified(self):
        game = GameSpec(4, Lime(epsilon=1e-3))
        report = is_pne(game, optimal_locations(4))
        assert report.is_pne and report.witness is None
        assert report.worst_gain <= report.gain_tol

    def test_lime_two_player_set(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        assert is_pne(game, (0.25, 0.75)).is_pne
        report = is_pne(game, (0.3, 0.7))
        assert not report.is_pne and report.witness is not None

    def test_nime_center_pair(self):
        assert is_pne(GameSpec(2, Nime()), (0.5, 0.5)).is_pne

    def test_clime_four_player_profile(self):
        game = GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3))
        assert is_pne(game, (1 / 8, 3 / 8, 5 / 8, 7 / 8)).is_pne

    @pytest.mark.parametrize("profile", [optimal_locations(5), (0.1, 0.3, 0.5, 0.7, 0.95)])
    def test_fast_check_counts_its_probes(self, profile, monkeypatch):
        calls = []
        payoff_locs = equilibrium._payoff_locs

        def counting(game, locs):
            calls.append(locs)
            return payoff_locs(game, locs)

        monkeypatch.setattr(equilibrium, "_payoff_locs", counting)
        report = is_pne(GameSpec(5, Lime(epsilon=1e-3)), profile, exhaustive=False)
        assert report.is_pne == (profile == optimal_locations(5))
        # One call prices the profile itself; every other one is a probe.
        assert report.candidate_count == len(calls) - 1

    def test_report_json(self):
        report = is_pne(GameSpec(2, Nime()), (0.4, 0.9))
        blob = report.to_json()
        assert blob["isPne"] is False
        assert set(blob["witness"]) == {"player", "deviation"}


class TestEnumeration:
    def test_lime_two_player_grid(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        got = pne_enumerate(game, 1 / 64)
        assert got == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.75)]

    def test_nime_three_players_coarse_grid_empty(self):
        assert pne_enumerate(GameSpec(3, Nime()), 1 / 20) == []

    def test_clime_three_players_coarse_grid_empty(self):
        game = GameSpec(3, Clime(lam=1 / 12, epsilon=1e-3))
        assert pne_enumerate(game, 1 / 24) == []

    def test_sharding_unions_to_full(self):
        game = GameSpec(2, Lime(epsilon=1e-3))
        total = math.comb(64 + 2, 2)
        parts = []
        for a in range(0, total, 541):
            parts.extend(pne_enumerate(game, 1 / 64, shard=(a, min(a + 541, total))))
        assert sorted(parts) == pne_enumerate(game, 1 / 64)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shard_seek_matches_islice(self, n):
        grid_n = 12
        full = list(combinations_with_replacement(range(grid_n + 1), n))
        rng = np.random.default_rng(n)
        for _ in range(30):
            start, stop = sorted(int(v) for v in rng.choice(len(full) + 1, 2, replace=False))
            assert list(_combos(grid_n, n, start, stop)) == full[start:stop], (start, stop)
        cuts = [0, *sorted(int(v) for v in rng.choice(range(1, len(full)), 6, replace=False)), len(full)]
        assert [c for a, b in zip(cuts, cuts[1:]) for c in _combos(grid_n, n, a, b)] == full

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(6, Nime()), 1e-4)

    def test_grid_step_must_divide(self):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), 0.3)

    @pytest.mark.parametrize("step", [0.0, -0.25, math.inf, math.nan])
    def test_grid_step_must_be_positive_and_finite(self, step):
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), step)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_gain_tol_must_be_positive_and_finite(self, tol):
        # A NaN tolerance used to pass all 15 grid profiles and to refute a
        # profile without a witness.
        game = GameSpec(2, Nime())
        with pytest.raises(ValueError):
            pne_enumerate(game, 0.25, gain_tol=tol)
        for exhaustive in (True, False):
            with pytest.raises(ValueError):
                is_pne(game, (0.5, 0.5), gain_tol=tol, exhaustive=exhaustive)
        with pytest.raises(ValueError):
            better_response_dynamics(game, (0.1, 0.9), max_steps=5, gain_tol=tol)

    @pytest.mark.parametrize("shard", [(10, 5), (5, 5), (-1, 5), (0, 2146), (2146, 2147)])
    def test_invalid_shard_rejected(self, shard):
        # The 1/64 two-player grid holds comb(66, 2) = 2145 sorted profiles.
        with pytest.raises(ValueError):
            pne_enumerate(GameSpec(2, Nime()), 1 / 64, shard=shard)

    def test_last_profile_shard(self):
        assert pne_enumerate(GameSpec(2, Nime()), 1 / 64, shard=(2144, 2145)) == []

    def test_unique_equilibria_on_grids_containing_them(self):
        # The characterized equilibrium sets are singletons; the grids below
        # contain the profiles exactly, so enumeration must return them alone.
        cases = [
            (GameSpec(3, Lime(epsilon=1e-3)), 1 / 60, optimal_locations(3)),
            (GameSpec(3, Glime(epsilon=1e-3)), 1 / 60, optimal_locations(3)),
            (GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3)), 1 / 24, optimal_locations(4)),
            (GameSpec(5, Clime(lam=1 / 10, epsilon=1e-3)), 1 / 10, optimal_locations(5)),
        ]
        for game, step, want in cases:
            assert pne_enumerate(game, step) == [want], game.mediator

    def test_no_facility_inside_interval_at_any_passing_profile(self):
        # Certified profiles never place a facility strictly inside a
        # protected interval.
        game = GameSpec(3, Lime(epsilon=1e-3))
        piis = pii_intervals(game.mediator, 3)
        for profile in pne_enumerate(game, 1 / 40):
            for s in profile:
                assert not any(lo < s < hi for lo, hi in piis)

    def test_grid_cost_minimizer_matches_reference_locations(self):
        # Among sorted grid profiles, the straight nearest-assignment cost is
        # minimized at the reference locations (grids chosen to contain them).
        from itertools import combinations_with_replacement

        for n, grid in ((2, 8), (3, 6)):
            game = GameSpec(n, Nime())
            best = min(
                combinations_with_replacement((k / grid for k in range(grid + 1)), n),
                key=lambda p: social_cost(game, p),
            )
            assert best == optimal_locations(n)


class TestKnownPne:
    def test_lime_five_players(self):
        assert known_pne(GameSpec(5, Lime(epsilon=1e-3))) == [optimal_locations(5)]

    def test_lime_two_player_square(self):
        got = known_pne(GameSpec(2, Lime(epsilon=1e-3)))
        assert sorted(got) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_glime_ramp_quantiles(self):
        got = known_pne(GameSpec(3, Glime(epsilon=1e-3), RAMP))
        want = tuple(math.sqrt(x) for x in (1 / 6, 0.5, 5 / 6))
        assert len(got) == 1
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got[0], want))

    def test_clime_quarter_recovers_two_player_square(self):
        got = known_pne(GameSpec(2, Clime(lam=0.25, epsilon=1e-3)))
        assert sorted(got) == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]

    def test_nime_two_player(self):
        assert known_pne(GameSpec(2, Nime())) == [(0.5, 0.5)]

    def test_uncharacterized_absent(self):
        assert known_pne(GameSpec(3, Nime())) is None
        assert known_pne(GameSpec(2, Glime(epsilon=1e-3))) is None
        assert known_pne(GameSpec(4, Clime(lam=1 / 8, epsilon=1e-3))) is None

    def test_uniform_only_answers_absent_under_other_densities(self):
        # The uniform-density equilibria of these rules fail certification
        # under the ramp, so no characterization is claimed there.
        cases = [
            (GameSpec(2, Nime(), RAMP), [(0.5, 0.5)]),
            (GameSpec(5, Lime(epsilon=1e-3), RAMP), [optimal_locations(5)]),
            (
                GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3), RAMP),
                [(a, b) for a in (0.375, 0.625) for b in (0.375, 0.625)],
            ),
        ]
        for game, uniform_answer in cases:
            assert known_pne(game) is None, game.mediator
            for profile in uniform_answer:
                assert not is_pne(game, profile).is_pne, (game.mediator, profile)

    def test_overridden_targets_are_the_dictated_equilibrium(self):
        game = GameSpec(2, Dictator(targets=(0.3, 0.6)))
        assert known_pne(game) == [(0.3, 0.6)]
        assert is_pne(game, (0.3, 0.6)).is_pne
        assert not is_pne(game, (0.25, 0.75)).is_pne

    def test_glime_tent_density_quantiles_certify(self):
        tent = PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))
        game = GameSpec(3, Glime(epsilon=1e-3), tent)
        locs = quantile_locations(3, tent)
        shares = payoff(game, locs)
        assert all(abs(x - 1 / 3) <= 1e-9 for x in shares)
        assert is_pne(game, locs).is_pne

    def test_every_known_profile_certifies(self):
        games = [
            GameSpec(2, Nime()),
            GameSpec(2, Lime(epsilon=1e-3)),
            GameSpec(4, Lime(epsilon=1e-3)),
            GameSpec(3, Dictator()),
            GameSpec(3, Glime(epsilon=1e-3)),
            GameSpec(2, Clime(lam=1 / 8, epsilon=1e-3)),
        ]
        for game in games:
            for profile in known_pne(game):
                assert is_pne(game, profile).is_pne, (game.mediator, profile)


class TestDynamics:
    def test_dictated_targets_attract(self):
        game = GameSpec(3, Dictator())
        trace = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=20, seed=0)
        assert trace.converged
        assert trace.states[-1] == optimal_locations(3)

    def test_unmediated_pair_walks_to_center(self):
        game = GameSpec(2, Nime())
        trace = better_response_dynamics(game, (0.1, 0.9), max_steps=300, seed=1)
        assert trace.converged
        grid_step = 0.01
        assert all(abs(s - 0.5) <= grid_step + 1e-12 for s in trace.states[-1])

    def test_start_at_equilibrium_is_stationary(self):
        game = GameSpec(4, Lime(epsilon=1e-3))
        trace = better_response_dynamics(game, optimal_locations(4), max_steps=5, seed=2)
        assert trace.converged and trace.steps == 0

    def test_stable_state_reached_on_the_last_step_converges(self):
        game = GameSpec(3, Dictator())
        full = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=20, seed=0)
        assert full.converged and full.steps >= 2
        exact = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=full.steps, seed=0)
        assert exact == full
        short = better_response_dynamics(game, (0.2, 0.5, 0.9), max_steps=full.steps - 1, seed=0)
        assert not short.converged and short.states == full.states[:-1]

    def test_moves_change_one_coordinate_and_improve(self):
        game = GameSpec(3, Nime())
        trace = better_response_dynamics(game, (0.05, 0.5, 0.9), max_steps=40, seed=3)
        for a, b in zip(trace.states, trace.states[1:]):
            changed = [i for i in range(3) if a[i] != b[i]]
            assert len(changed) == 1
            mover = changed[0]
            assert payoff(game, b)[mover] > payoff(game, a)[mover] + 1e-9


class TestNeutrality:
    def test_limited_intervention_rules_neutral(self):
        for game in (
            GameSpec(4, Lime(epsilon=1e-3)),
            GameSpec(3, Glime(epsilon=1e-3)),
            GameSpec(3, Clime(lam=1 / 8, epsilon=1e-3)),
            GameSpec(3, Nime()),
        ):
            neutral, witness = neutrality_check(game, trials=300, seed=0)
            assert neutral and witness is None

    def test_dictated_targets_break_neutrality(self):
        neutral, witness = neutrality_check(GameSpec(2, Dictator()), trials=1000, seed=0)
        assert not neutral
        profile, i, j, pi_i, pj_swapped = witness
        assert abs(pi_i - pj_swapped) > 1e-9
