"""Distribution primitives, reference locations, and parameter records."""

import json
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
    distribution_from_json,
    mediator_from_json,
    mediator_to_json,
    optimal_locations,
    quantile_locations,
    validate_profile,
)
from hotelling_mediators.core import _MEDIATORS

from test_mediators import SAMPLES

TOL = 1e-12

# Density g(t) = 2t: cdf t^2, quantile sqrt(p).
RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
# A two-segment tent density, to exercise interior breakpoints.
TENT = PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))


def bisect_quantile(dist, p, iters=200):
    """Independent quantile oracle: plain bisection on the closed-form CDF."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return hi


class TestUniform:
    def test_density(self):
        assert UNIFORM.density(0.3) == 1.0

    def test_cdf(self):
        assert UNIFORM.cdf(0.25) == 0.25

    def test_quantile(self):
        assert UNIFORM.quantile(0.125) == 0.125

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            UNIFORM.density(1.5)
        with pytest.raises(ValueError):
            UNIFORM.cdf(-0.1)
        with pytest.raises(ValueError):
            UNIFORM.quantile(1.1)


class TestRampDensity:
    def test_density_midpoint(self):
        assert abs(RAMP.density(0.5) - 1.0) <= TOL

    def test_cdf_values(self):
        assert abs(RAMP.cdf(0.5) - 0.25) <= TOL
        assert RAMP.cdf(1.0) == pytest.approx(1.0, abs=TOL)
        assert RAMP.cdf(0.0) == 0.0

    def test_quantile_closed_form(self):
        assert abs(RAMP.quantile(0.25) - 0.5) <= TOL

    def test_quantile_matches_bisection_oracle(self):
        # First odd-sixth level, as used by three-player quantile locations.
        p = 1.0 / 6.0
        q = RAMP.quantile(p)
        assert abs(q - bisect_quantile(RAMP, p)) <= 1e-12
        assert abs(q - math.sqrt(1.0 / 6.0)) <= 1e-12
        assert abs(RAMP.cdf(q) - p) <= 1e-12

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, 1.0), (0.0, 1.0))  # integrates to 1/2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, 0.5), (1.0, 1.0))  # must end at 1
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, 0.5, 0.5, 1.0), (1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, 1.0), (2.0, -0.0000001))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN compares false everywhere, so it used to pass every check.
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, 0.5, 1.0), (1.0, bad, 1.0))
        with pytest.raises(ValueError):
            PiecewiseLinearDensity((0.0, bad, 1.0), (1.0, 1.0, 1.0))


class TestMoments:
    def test_uniform_abs_moment_split(self):
        # Integral of |0.5 - t| over [0, 1] is 1/4.
        assert abs(UNIFORM.abs_moment(0.5, 0.0, 1.0) - 0.25) <= TOL

    def test_pwl_mass_and_first_moment(self):
        # For g = 2t: mass over [a,b] is b^2-a^2, first moment 2(b^3-a^3)/3.
        a, b = 0.2, 0.9
        assert abs(RAMP.mass(a, b) - (b * b - a * a)) <= TOL
        assert abs(RAMP.first_moment(a, b) - 2 * (b**3 - a**3) / 3) <= TOL

    def test_pwl_abs_moment_against_quadrature(self):
        ts = np.linspace(0.1, 0.8, 200_001)
        g = 2 * ts
        c = 0.37
        approx = np.trapezoid(np.abs(c - ts) * g, ts)
        assert abs(TENT.abs_moment(c, 0.1, 0.8)) >= 0.0
        assert abs(RAMP.abs_moment(c, 0.1, 0.8) - approx) <= 1e-8


class TestQuantileCdfIdentity:
    @pytest.mark.parametrize("dist", [UNIFORM, RAMP, TENT], ids=["uniform", "ramp", "tent"])
    def test_roundtrip_where_density_positive(self, dist):
        for t in np.linspace(0.0, 1.0, 501):
            t = float(t)
            if dist.density(t) > 0.0:
                assert abs(dist.quantile(dist.cdf(t)) - t) <= 1e-10

    @pytest.mark.parametrize("dist", [UNIFORM, RAMP, TENT], ids=["uniform", "ramp", "tent"])
    def test_cdf_monotone_on_grid(self, dist):
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [dist.cdf(float(t)) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(dist.density(float(t)) >= 0.0 for t in grid[::10])

    def test_quantile_flat_region_smallest_preimage(self):
        # Zero density on [0, 0.25]: the 0-quantile is the left end.
        flat = PiecewiseLinearDensity((0.0, 0.25, 1.0), (0.0, 0.0, 8.0 / 3.0))
        assert flat.quantile(0.0) == 0.0
        assert abs(flat.cdf(0.25) - 0.0) <= TOL

    def test_quantile_zero_tail_smallest_preimage(self):
        # Zero density on [0.75, 1]: the 1-quantile is where mass runs out.
        tail = PiecewiseLinearDensity((0.0, 0.5, 0.75, 1.0), (0.0, 8 / 3, 0.0, 0.0))
        assert abs(tail.cdf(0.75) - 1.0) <= TOL
        assert abs(tail.quantile(1.0) - 0.75) <= TOL

    def test_quantile_array_matches_scalar(self):
        ps = np.linspace(0.0, 1.0, 101)
        for dist in (RAMP, TENT):
            vec = dist.quantile_array(ps)
            for p, q in zip(ps, vec):
                assert abs(dist.quantile(float(p)) - q) <= 1e-12


class TestReferenceLocations:
    def test_two_players(self):
        assert optimal_locations(2) == (0.25, 0.75)

    def test_four_players(self):
        assert optimal_locations(4) == (1 / 8, 3 / 8, 5 / 8, 7 / 8)

    def test_single_player_midpoint(self):
        assert optimal_locations(1) == (0.5,)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            optimal_locations(0)

    def test_uniform_quantile_locations_match_exactly(self):
        for n in range(1, 9):
            assert quantile_locations(n, UNIFORM) == optimal_locations(n)

    def test_ramp_quantile_locations(self):
        got = quantile_locations(2, RAMP)
        assert abs(got[0] - 0.5) <= 1e-12
        assert abs(got[1] - math.sqrt(3) / 2) <= 1e-12

    def test_uniform_default(self):
        assert quantile_locations(3) == (1 / 6, 0.5, 5 / 6)


class TestProfiles:
    def test_order_preserved(self):
        assert validate_profile((0.9, 0.1)) == (0.9, 0.1)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            validate_profile((0.1, 0.2), n=3)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            validate_profile((0.1, 1.2))


class TestMediatorRecords:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            Lime(epsilon=0.0)
        with pytest.raises(ValueError):
            Glime(epsilon=0.34)
        Lime(epsilon=0.33)

    def test_clime_lambda_game_bounds(self):
        GameSpec(2, Clime(lam=0.25))
        with pytest.raises(ValueError):
            GameSpec(2, Clime(lam=0.26))
        GameSpec(3, Clime(lam=1 / 8))
        with pytest.raises(ValueError):
            GameSpec(3, Clime(lam=1 / 6))  # intervals would touch

    def test_dictator_targets_resolved(self):
        game = GameSpec(3, Dictator())
        assert game.mediator.targets == optimal_locations(3)
        with pytest.raises(ValueError):
            GameSpec(3, Dictator(targets=(0.25, 0.75)))

    def test_min_players(self):
        with pytest.raises(ValueError):
            GameSpec(1, Nime())

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
    def test_integer_players(self, n):
        with pytest.raises(ValueError):
            GameSpec(n, Nime())

    def test_numpy_integer_players(self):
        assert GameSpec(np.int64(3), Nime()).n == 3

    def test_mediator_json_roundtrip(self):
        for kind in _MEDIATORS:
            for m in SAMPLES[kind]:
                assert mediator_to_json(m)["kind"] == kind
                assert mediator_from_json(json.loads(json.dumps(mediator_to_json(m)))) == m

    def test_mediator_json_unknown_kind(self):
        with pytest.raises(ValueError):
            mediator_from_json({"kind": "oracle"})

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            "lime",
            {"kind": ["lime"]},
            {"kind": "lime", "epsilon": None},
            {"kind": "glime", "epsilon": "0.01"},
            {"kind": "clime", "lambda": None},
            {"kind": "clime"},
            {"kind": "dict", "targets": 5},
            {"kind": "dict", "targets": [0.2, "x"]},
            {"kind": "dict", "equalityTol": True},
        ],
    )
    def test_malformed_mediator_json(self, obj):
        with pytest.raises(ValueError):
            mediator_from_json(obj)

    def test_dictator_rejects_nan_equality_tol(self):
        with pytest.raises(ValueError):
            Dictator(equality_tol=float("nan"))

    def test_game_rejects_non_mediator(self):
        with pytest.raises(TypeError):
            GameSpec(3, "lime")

    def test_distribution_json_roundtrip(self):
        assert distribution_from_json({"kind": "uniform"}) == UNIFORM
        again = distribution_from_json(RAMP.to_json())
        assert again.breakpoints == RAMP.breakpoints
        assert again.values == RAMP.values
