"""Distribution primitives, reference locations, and parameter records."""

import inspect
import json
import math
import pickle
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    adversarial_profile,
    better_response_dynamics,
    compile_policy,
    direct,
    distribution_from_json,
    is_pne,
    mc_payoff,
    mediator_from_json,
    optimal_locations,
    payoff,
    pne_enumerate,
    quantile_locations,
    validate_profile,
)
from hotelling_mediators.core import _MEDIATORS
from hotelling_mediators.equilibrium import _plan_arrays

from test_mediators import SAMPLES
from test_policy_reference import ZIGZAG

TOL = 1e-12

# Density g(t) = 2t: cdf t^2, quantile sqrt(p).
RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
# A two-segment tent density, to exercise interior breakpoints.
TENT = PiecewiseLinearDensity((0.0, 0.5, 1.0), (0.0, 2.0, 0.0))


@st.composite
def _densities(draw):
    """A valid density: 2-8 knots on a grid of step 1/100, integer values
    with zeros among them, normalized to integrate to one."""
    k = draw(st.integers(2, 8))
    inner = draw(st.lists(st.integers(1, 99), min_size=k - 2, max_size=k - 2, unique=True))
    xs = (0.0, *sorted(i / 100 for i in inner), 1.0)
    gs = draw(st.lists(st.one_of(st.just(0), st.integers(0, 40)), min_size=k, max_size=k))
    area = sum(0.5 * (xs[i + 1] - xs[i]) * (gs[i] + gs[i + 1]) for i in range(k - 1))
    assume(area > 0.0)
    return PiecewiseLinearDensity(xs, tuple(g / area for g in gs))


RANDOM_DENSITIES = _densities()


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
        with pytest.raises(ValueError, match="equal length"):
            PiecewiseLinearDensity((0.0, 0.5, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="at least two breakpoints"):
            PiecewiseLinearDensity((0.0,), (1.0,))

    def test_constructor_takes_the_knots_only(self):
        # The prefix tuples used to be hidden constructor parameters, and a
        # third argument was accepted and silently overwritten.
        assert list(inspect.signature(PiecewiseLinearDensity).parameters) == ["breakpoints", "values"]
        with pytest.raises(TypeError):
            PiecewiseLinearDensity((0.0, 1.0), (1.0, 1.0), (9.0,))

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
        assert UNIFORM.first_moment(0.5, 1.0) == 0.375

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


def _reference_segment(dist, x):
    """Segment k of x and the formulas the density evaluated before its
    segment table: ``(density, cdf, first-moment prefix)`` at x."""
    xs, gs = dist.breakpoints, dist.values
    k = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
    w = (x - xs[k]) / (xs[k + 1] - xs[k])
    density = gs[k] + w * (gs[k + 1] - gs[k])
    u = x - xs[k]
    m = (gs[k + 1] - gs[k]) / (xs[k + 1] - xs[k])
    cdf = dist._segments[k][3] + u * (gs[k] + 0.5 * m * u)
    x0 = xs[k]
    h = xs[k + 1] - x0
    m = (gs[k + 1] - gs[k]) / h
    c = gs[k] - m * x0
    fm = 0.5 * c * (x * x - x0 * x0) + m * (x * x * x - x0 * x0 * x0) / 3.0
    return density, cdf, dist._segments[k][4] + fm


def _reference_abs_moment(dist, c, a, b):
    _, cdf_a, fm_a = _reference_segment(dist, a)
    _, cdf_b, fm_b = _reference_segment(dist, b)
    if b <= c:
        return c * (cdf_b - cdf_a) - (fm_b - fm_a)
    if a >= c:
        return (fm_b - fm_a) - c * (cdf_b - cdf_a)
    _, cdf_c, fm_c = _reference_segment(dist, c)
    return (c * (cdf_c - cdf_a) - (fm_c - fm_a)) + ((fm_b - fm_c) - c * (cdf_b - cdf_c))


def _table_points(dist, randoms):
    """0, 1, every breakpoint and its float neighbours inside [0, 1], and
    the given random points, sorted."""
    points = {0.0, 1.0, *randoms}
    for x in dist.breakpoints:
        points.update(y for y in (math.nextafter(x, -1.0), x, math.nextafter(x, 2.0)) if 0.0 <= y <= 1.0)
    return sorted(points)


def _assert_table_matches_reference(dist, points):
    bits = float.hex
    masses = []
    for x in points:
        density, cdf, fm = _reference_segment(dist, x)
        assert tuple(map(bits, dist._prefix(x))) == (bits(cdf), bits(fm)), (dist, x)
        assert bits(dist.cdf(x)) == bits(cdf), (dist, x)
        assert bits(dist.density(x)) == bits(density), (dist, x)
        _, cdf_0, fm_0 = _reference_segment(dist, 0.0)
        masses.append(cdf - cdf_0)
        assert bits(dist.mass(0.0, x)) == bits(masses[-1]), (dist, x)
        assert bits(dist.first_moment(0.0, x)) == bits(fm - fm_0), (dist, x)
    got = dist.mass_array(np.zeros(len(points)), np.array(points))
    assert list(map(bits, got.tolist())) == list(map(bits, masses)), dist
    # Every ordered pair (a, b) of a sample of the points, with c below,
    # inside and above it.
    sample = points[:: max(1, len(points) // 12)] + [points[-1]]
    pairs, triples, masses, moments = [], [], [], []
    for i, a in enumerate(sample):
        for b in sample[i:]:
            _, cdf_a, fm_a = _reference_segment(dist, a)
            _, cdf_b, fm_b = _reference_segment(dist, b)
            pairs.append((a, b))
            masses.append(cdf_b - cdf_a)
            assert bits(dist.mass(a, b)) == bits(masses[-1]), (dist, a, b)
            assert bits(dist.first_moment(a, b)) == bits(fm_b - fm_a), (dist, a, b)
            for c in sample:
                triples.append((c, a, b))
                moments.append(_reference_abs_moment(dist, c, a, b))
                assert bits(dist.abs_moment(c, a, b)) == bits(moments[-1]), (dist, c, a, b)
    got = dist.mass_array(*map(np.array, zip(*pairs)))
    assert list(map(bits, got.tolist())) == list(map(bits, masses)), dist
    got = dist.abs_moment_array(*map(np.array, zip(*triples)))
    assert list(map(bits, got.tolist())) == list(map(bits, moments)), dist


class TestSegmentTable:
    """The scalar and the array density methods read one per-segment table
    of constants; every value is bitwise what the formulas gave before the
    table."""

    @pytest.mark.parametrize("dist", [RAMP, TENT, ZIGZAG], ids=["ramp", "tent", "zigzag"])
    def test_fixed_densities_match_the_formulas(self, dist):
        rng = np.random.default_rng(31)
        _assert_table_matches_reference(dist, _table_points(dist, rng.random(40).tolist()))

    @settings(max_examples=60)
    @given(RANDOM_DENSITIES, st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_random_densities_match_the_formulas(self, dist, randoms):
        _assert_table_matches_reference(dist, _table_points(dist, randoms))


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

    @pytest.mark.parametrize("dist", [UNIFORM, RAMP, TENT], ids=["uniform", "ramp", "tent"])
    def test_quantile_array_keeps_the_input_shape(self, dist):
        # A scalar level used to raise TypeError under a piecewise-linear
        # density: the result was a numpy scalar, assigned to by item.
        for p in (0.25, np.float64(0.25), np.array(0.25), [0.25], np.full((2, 3), 0.25)):
            q = dist.quantile_array(p)
            assert np.shape(q) == np.shape(p)
            assert np.all(q == dist.quantile(0.25))

    def test_quantile_one_when_the_mass_rounds_below_one(self):
        # The cumulative mass is 0.9999999999999999: no breakpoint reaches
        # level 1, and the quantile used to index past the last segment.
        dist = PiecewiseLinearDensity((0.0, 0.1, 1.0), (0.4, 0.7, 1.4))
        # The total, as the constructor sums it: the last segment's prefix
        # plus its mass.
        last = dist._segments[-1]
        assert last[3] + 0.5 * last[9] * (dist.values[-2] + dist.values[-1]) < 1.0
        assert dist.quantile(1.0) == 1.0

    @settings(max_examples=200)
    @given(RANDOM_DENSITIES, st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_quantile_inverts_cdf_on_random_densities(self, dist, levels):
        levels = [0.0, 1.0, *levels]
        qs = dist.quantile_array(levels)
        for p, q in zip(levels, qs):
            got = dist.quantile(p)
            assert got == q, (dist, p, got, q)
            assert abs(dist.cdf(got) - p) <= 1e-12, (dist, p, got)


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

    @pytest.mark.parametrize("n", [2.7, 1.0, True, "2", None])
    def test_count_must_be_an_integer(self, n):
        # int(n) truncated: optimal_locations(2.7) gave two locations and
        # optimal_locations(True) one.
        with pytest.raises(ValueError, match="integer"):
            optimal_locations(n)
        with pytest.raises(ValueError, match="integer"):
            quantile_locations(n)

    def test_numpy_integer_count(self):
        assert optimal_locations(np.int64(2)) == (0.25, 0.75)
        assert quantile_locations(np.int32(1)) == (0.5,)
        assert len(quantile_locations(np.uint8(3), PiecewiseLinearDensity((0.0, 1.0), (0.5, 1.5)))) == 3

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


def _game_arrays(game):
    """The read-only arrays a game builds beside its intervals."""
    return (*game.pii_arrays, game.fixed_breakpoints)


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
                assert m.to_json()["kind"] == kind
                assert mediator_from_json(json.loads(json.dumps(m.to_json()))) == m

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
            {"kind": "nime", "epsilon": "garbage", "lambda": [1]},
            {"kind": "nime", "epsilon": 1e-3},
            {"kind": "dict", "epsilon": 1e-3},
            {"kind": "lime", "equalityTol": 1e-9},
            {"kind": "glime", "targets": [0.2, 0.8]},
            {"kind": "clime", "lambda": 0.1, "equalityTol": 1e-9},
            {"kind": "lime", "eps": 1e-3},
        ],
    )
    def test_malformed_mediator_json(self, obj):
        with pytest.raises(ValueError):
            mediator_from_json(obj)

    def test_unread_mediator_key_is_named(self):
        # A key the kind never reads was dropped: this parsed as Nime().
        with pytest.raises(ValueError, match="'nime' does not read 'epsilon'"):
            mediator_from_json({"kind": "nime", "epsilon": "garbage", "lambda": [1]})

    def test_dictator_rejects_nan_equality_tol(self):
        with pytest.raises(ValueError):
            Dictator(equality_tol=float("nan"))

    def test_game_rejects_non_mediator(self):
        with pytest.raises(TypeError):
            GameSpec(3, "lime")

    def test_game_keeps_interval_arrays_beside_piis(self):
        for kind in _MEDIATORS:
            for m in SAMPLES[kind]:
                # Dictated targets fix the player count.
                for n in (2,) if m.targets else (2, 3, 5):
                    game = GameSpec(n, m, ZIGZAG)
                    ends, bounds = game.pii_arrays
                    assert ends.tolist() == list(game.ends) == [-math.inf, *(e for pii in game.piis for e in pii), math.inf]
                    # Python floats, so kinks and witnesses keep their repr.
                    assert all(type(c) is float for family in (game.ends, *game.kink_families) for c in family)
                    assert bounds.shape == (2, len(game.piis))
                    assert list(zip(*bounds.tolist())) == list(game.piis)
                    assert not ends.flags.writeable and not bounds.flags.writeable
                    fixed = game.fixed_breakpoints
                    assert fixed.tolist() == sorted({0.0, 1.0, *(e for pii in game.piis for e in pii)})
                    assert not fixed.flags.writeable
                    assert game.plan_arrays is None

    def test_pickled_game_rebuilds_read_only_arrays(self):
        # Worker processes receive their games pickled: the copy keeps every
        # array read-only and carries no probe plan, which it builds anew.
        for game in (GameSpec(3, Lime(), ZIGZAG), GameSpec(2, Dictator(), RAMP), GameSpec(3, Nime())):
            _plan_arrays(game)
            copy = pickle.loads(pickle.dumps(game))
            assert copy == game and hash(copy) == hash(game)
            assert copy.plan_arrays is None and game.plan_arrays is not None
            assert (copy.nime_twin is copy) == (game.nime_twin is game)
            assert (copy.ends, copy.kink_families) == (game.ends, game.kink_families)
            pairs = zip(_game_arrays(copy) + _game_arrays(copy.nime_twin), _game_arrays(game) + _game_arrays(game.nime_twin))
            for got, want in pairs:
                assert not got.flags.writeable and np.array_equal(got, want)
            if game.distribution != UNIFORM:
                columns = copy.distribution._columns
                assert not columns.flags.writeable and np.array_equal(columns, game.distribution._columns)

    def test_nime_equilibrium_costs(self):
        # Table 1's no-intervention rows; n = 3 has no equilibrium.
        costs = {n: Nime().pne_costs(n) for n in range(2, 7)}
        assert costs == {2: (0.25, 0.25), 3: (None, None), 4: (1 / 8, 1 / 8), 5: (1 / 12, 1 / 12), 6: (1 / 16, 1 / 12)}

    @pytest.mark.parametrize("dist", ["uniform", None, {"kind": "uniform"}])
    def test_game_rejects_non_distribution(self, dist):
        # A string used to construct and fail only at the first payoff.
        with pytest.raises(TypeError):
            GameSpec(2, Nime(), dist)

    def test_distribution_json_roundtrip(self):
        assert distribution_from_json({"kind": "uniform"}) == UNIFORM
        assert distribution_from_json(UNIFORM.to_json()) == UNIFORM
        again = distribution_from_json(RAMP.to_json())
        assert again.breakpoints == RAMP.breakpoints
        assert again.values == RAMP.values
        with pytest.raises(ValueError, match="unknown distribution kind 'beta'"):
            distribution_from_json({"kind": "beta"})


NIME2 = GameSpec(2, Nime())


class TestArgumentCheckers:
    # Each call but the last raised TypeError or gave an answer before the
    # checks moved into core; the bool tolerance certified (0.1, 0.9), whose
    # worst gain is 0.4, as an equilibrium against a tolerance of 1.  An
    # infinite obedience band is invalid, as neutrality_check's tol is finite.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: is_pne(NIME2, (0.1, 0.9), gain_tol=True),
            lambda: better_response_dynamics(NIME2, (0.1, 0.9), 3, gain_tol=True),
            lambda: pne_enumerate(NIME2, True),
            lambda: is_pne(NIME2, (0.1, 0.9), gain_tol="1e-9"),
            lambda: pne_enumerate(NIME2, "0.1"),
            lambda: pne_enumerate(NIME2, 0.1, shard=(0.5, 3)),
            lambda: pne_enumerate(NIME2, 0.1, shard="ab"),
            lambda: adversarial_profile("lime", 4, "x"),
            lambda: Lime(epsilon="0.1"),
            lambda: Clime(lam="0.1"),
            lambda: Dictator(equality_tol="1"),
            lambda: Dictator(equality_tol=True),
            lambda: Dictator(equality_tol=math.inf),
        ],
        ids=[
            "is_pne-gain_tol-bool", "dynamics-gain_tol-bool", "enumerate-grid_step-bool",
            "is_pne-gain_tol-str", "enumerate-grid_step-str", "shard-float", "shard-str",
            "adversarial-delta-str", "lime-epsilon-str", "clime-lambda-str",
            "dict-equality_tol-str", "dict-equality_tol-bool", "dict-equality_tol-inf",
        ],
    )
    def test_bad_value_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    def test_numbers_are_stored_as_python_scalars(self):
        game = GameSpec(np.int64(3), Clime(lam=np.float64(1 / 8), epsilon=np.float32(0.25)))
        assert type(game.n) is int
        assert type(game.mediator.lam) is float and type(game.mediator.epsilon) is float
        assert type(Dictator(equality_tol=0).equality_tol) is float
        report = is_pne(game, optimal_locations(3), gain_tol=np.float64(1e-9))
        assert type(report.gain_tol) is float


P2 = (0.2, 0.8)
FLAT = PiecewiseLinearDensity((0.0, 1.0), (1.0, 1.0))


class TestLocationChecks:
    # Each call passes a string, bytes, a bool, None, no sequence or a number
    # outside [0, 1] where a location, a profile or density knots belong;
    # float() would take the strings and bytes, bools read as 0 and 1, a
    # dict as its keys, and an unchecked moment extrapolates.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: payoff(NIME2, ("0.2", True)),
            lambda: payoff(NIME2, (b"0.2", 0.8)),
            lambda: payoff(NIME2, (0.2, np.True_)),
            lambda: payoff(NIME2, {0.2: "a", 0.8: "b"}),
            lambda: payoff(NIME2, 0.5),
            lambda: payoff(NIME2, (None, 0.5)),
            lambda: Dictator(targets=("0.2", "0.8")),
            lambda: Dictator(targets=(False, True)),
            lambda: direct(NIME2, P2, "0.5"),
            lambda: direct(NIME2, P2, True),
            lambda: UNIFORM.cdf("0.5"),
            lambda: compile_policy(NIME2, P2).evaluate("0.3"),
            lambda: UNIFORM.quantile(True),
            lambda: UNIFORM.quantile("0.5"),
            lambda: FLAT.quantile(None),
            lambda: PiecewiseLinearDensity(("0", "1"), ("1", "1")),
            lambda: PiecewiseLinearDensity((False, True), (True, True)),
            lambda: PiecewiseLinearDensity(5, 5),
            lambda: PiecewiseLinearDensity(None, (1.0,)),
            lambda: PiecewiseLinearDensity((0.0, 1.0), 5),
            lambda: FLAT.abs_moment("0.5", 0.0, 1.0),
            lambda: is_pne(NIME2, ("0.5", "0.5")),
            lambda: better_response_dynamics(NIME2, ("0.1", "0.9"), 1),
            lambda: mc_payoff(NIME2, ("0.1", "0.9"), 10),
            lambda: UNIFORM.mass(2.0, -1.0),
            lambda: UNIFORM.abs_moment(5.0, -1.0, 3.0),
            lambda: RAMP.first_moment(-1.0, 2.0),
            lambda: UNIFORM.first_moment(True, 0.5),
            lambda: UNIFORM.mass("0.1", 0.5),
        ],
        ids=[
            "payoff-str-bool", "payoff-bytes", "payoff-numpy-bool", "payoff-dict", "payoff-scalar",
            "payoff-none", "dict-targets-str", "dict-targets-bool", "direct-str", "direct-bool",
            "cdf-str", "evaluate-str", "quantile-bool", "quantile-str", "pwl-quantile-none",
            "pwl-knots-str", "pwl-knots-bool", "pwl-knots-int", "pwl-knots-none", "pwl-values-int",
            "pwl-abs-moment-str", "is_pne-str",
            "dynamics-str", "mc_payoff-str", "mass-outside", "abs-moment-outside",
            "pwl-first-moment-outside", "first-moment-bool", "mass-str",
        ],
    )
    def test_bad_location_raises_value_error(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("dist", [UNIFORM, RAMP], ids=["uniform", "pwl"])
    @pytest.mark.parametrize(
        "method, args, name",
        [
            ("density", (1.5,), "t"),
            ("cdf", (-0.1,), "t"),
            ("quantile", (True,), "quantile level"),
            ("mass", (2.0, -1.0), "a"),
            ("mass", (0.1, "0.5"), "b"),
            ("first_moment", (None, 0.5), "a"),
            ("first_moment", (0.1, math.nan), "b"),
            ("abs_moment", (5.0, -1.0, 3.0), "c"),
            ("abs_moment", (0.5, -1.0, 1.0), "a"),
            ("abs_moment", (0.5, 0.0, b"1"), "b"),
        ],
        ids=["density-t", "cdf-t", "quantile-level", "mass-a", "mass-b", "first-moment-a",
             "first-moment-b", "abs-moment-c", "abs-moment-a", "abs-moment-b"],
    )
    def test_density_checks_name_the_argument(self, dist, method, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a real number in \[0, 1\], got "):
            getattr(dist, method)(*args)

    @pytest.mark.parametrize(
        "profile",
        ["0.2", b"\x00\x01", {0.2, 0.8}, np.array([[0.2, 0.8]]), np.array(0.5), [[0.2], [0.8]], (0.2, float("nan"))],
        ids=["str", "bytes", "set", "nested-array", "zero-d-array", "nested-list", "nan"],
    )
    def test_only_a_sequence_of_locations_is_a_profile(self, profile):
        with pytest.raises(ValueError):
            validate_profile(profile)

    def test_numpy_entries_are_stored_as_python_floats(self):
        entries = (np.float32(0.25), np.float64(0.5), np.int64(1))
        for locs in (
            validate_profile(entries),
            validate_profile(np.array([0.25, 0.5, 1.0])),
            Dictator(targets=entries).targets,
        ):
            assert locs == (0.25, 0.5, 1.0)
            assert all(type(s) is float for s in locs)
        assert type(UNIFORM.quantile(np.float32(0.5))) is float
        assert type(FLAT.quantile(np.int64(1))) is float
        assert payoff(NIME2, np.array(P2)) == payoff(NIME2, P2)
