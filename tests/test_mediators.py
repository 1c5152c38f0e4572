"""Pointwise direction rules and compiled piecewise policies."""

import math

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
    UNIFORM,
    compile_policy,
    direct,
    optimal_locations,
    pii_intervals,
    quantile_locations,
    validate_profile,
)
from hotelling_mediators.core import _MEDIATORS

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
        assert pii_intervals(Lime(), 4) == (
            (2 / 16, 6 / 16),
            (6 / 16, 10 / 16),
            (10 / 16, 14 / 16),
        )

    def test_clime_two_players_single_interval(self):
        assert pii_intervals(Clime(lam=1 / 8), 2) == ((3 / 8, 5 / 8),)

    def test_nime_empty(self):
        assert pii_intervals(Nime(), 5) == ()
        assert pii_intervals(Dictator(), 3) == ()

    def test_glime_uses_distribution(self):
        got = pii_intervals(Glime(), 2, RAMP)
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
                        assert piis == pii_intervals(game.mediator, n, dist)
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
        from hotelling_mediators.core import validate_direction_distribution

        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            game = _random_game(rng, n)
            profile = tuple(rng.random(n))
            for _, _, d in compile_policy(game, profile).pieces:
                validate_direction_distribution(d, n)

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
