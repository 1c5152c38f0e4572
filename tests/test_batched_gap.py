"""The row integrator against the scalar path.

``_cost_rows`` and ``_twin_rows`` (ic_search's random phase, whose gap is
their difference) and ``_payoff_rows`` (equilibrium enumeration's waves, the
exhaustive equilibrium check's deviation lines and better-response
dynamics' candidates) price a block of profiles with one array computation,
held player-major; the scalar ``_gap_locs`` and ``_payoff_locs`` stay the
oracles.  Agreement is bitwise, sign of zero included, so ic_search,
pne_enumerate, is_pne and better_response_dynamics return exactly what
pricing one row at a time does.
"""

import itertools
import logging
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings

from hotelling_mediators import Clime, GameSpec, Glime, Lime, Nime, compile_policy, direct, ic_search, quantile_locations
from hotelling_mediators import metrics
from hotelling_mediators.mediators import _compiled_pieces
from hotelling_mediators.metrics import _cost_rows, _gap_locs, _kept_costs, _payoff_locs, _payoff_rows, _twin_rows

from test_equilibrium import Banded
from test_policy_reference import COORDS, DENSITIES, PROPERTY_GAMES, _custom_dictator, _mediators, _profiles, anchored

NS = (2, 3, 4, 5, 6, 7, 8, 12, 16, 32)


def _bitwise(a, b):
    return a == b and np.signbit(a) == np.signbit(b)


def _gap_rows(game, rows):
    """The random phase's gap of every row: its two kernels' difference."""
    return _cost_rows(game, rows) - _twin_rows(game, rows)


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", NS)
def test_rows_equal_scalar_gap(n, density):
    rng = np.random.default_rng([n, len(density), 3])
    for name, mediator in {**_mediators(n), "dict-custom": _custom_dictator(n)}.items():
        game = GameSpec(n, mediator, DENSITIES[density])
        rows = np.array(_profiles(rng, game, 48 if n <= 8 else 12))
        got = _gap_rows(game, rows)
        for k in range(len(rows)):
            want = _gap_locs(game, tuple(rows[k]))
            assert _bitwise(got[k], want), (name, tuple(rows[k]), got[k], want)


@settings(max_examples=30)
@given(COORDS)
def test_scalar_and_row_paths_agree(coords):
    for game in PROPERTY_GAMES:
        profile = anchored(game, coords)
        row = np.array([profile])
        got, want = _payoff_rows(game, row)[0], _payoff_locs(game, profile)
        assert all(_bitwise(a, b) for a, b in zip(got, want)), (game, profile, got, want)
        got, want = _gap_rows(game, row)[0], _gap_locs(game, profile)
        assert _bitwise(got, want), (game, profile, got, want)


@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_row_alone_equals_row_in_block(density):
    rng = np.random.default_rng(len(density))
    for n in (3, 8):
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            rows = np.array(_profiles(rng, game, 16))
            block = _gap_rows(game, rows)
            for k in range(len(rows)):
                assert _bitwise(_gap_rows(game, rows[k : k + 1])[0], block[k]), (name, k)


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", [2, 3])
def test_signed_zero_profiles_price_as_scalar(n, density):
    # Every profile over {-0.0, 0.0, the least subnormal, an interval
    # endpoint, 0.5, 1.0}, each game priced as one block: the sign of a zero
    # must survive the reductions over players and pieces.
    for name, mediator in {**_mediators(n), "dict-custom": _custom_dictator(n)}.items():
        game = GameSpec(n, mediator, DENSITIES[density])
        end = game.piis[0][0] if game.piis else 0.25
        profiles = list(itertools.product((-0.0, 0.0, 5e-324, end, 0.5, 1.0), repeat=n))
        rows = np.array(profiles)
        payoffs, gaps = _payoff_rows(game, rows), _gap_rows(game, rows)
        for k, profile in enumerate(profiles):
            want = _payoff_locs(game, profile)
            assert all(_bitwise(a, b) for a, b in zip(payoffs[k], want)), (name, profile, payoffs[k], want)
            want = _gap_locs(game, profile)
            assert _bitwise(gaps[k], want), (name, profile, gaps[k], want)


def _assert_rows_price_as_scalar(game, profiles, label):
    rows = np.array(profiles)
    payoffs, gaps = _payoff_rows(game, rows), _gap_rows(game, rows)
    for k, profile in enumerate(profiles):
        want = _payoff_locs(game, profile)
        assert all(_bitwise(a, b) for a, b in zip(payoffs[k], want)), (label, profile, payoffs[k], want)
        want = _gap_locs(game, profile)
        assert _bitwise(gaps[k], want), (label, profile, gaps[k], want)


# Profiles with a doubled site, where the row compiler once split a piece at
# the site (the midpoint of the pair) and so differed from the scalar
# compiler in the last ulp of a payoff or the gap.
DOUBLED_SITES = {
    "lime3": (GameSpec(3, Lime()), (0.7054206061112956, 0.7054206061112959, 0.7054206061112956)),
    "glime3": (GameSpec(3, Glime()), (0.79340880592727, 0.7934088059272703, 0.79340880592727)),
    "clime3": (GameSpec(3, Clime(lam=1 / 8)), (0.8046774640372168, 0.8046774640372166, 0.8046774640372166)),
}


@pytest.mark.parametrize("case", sorted(DOUBLED_SITES))
def test_doubled_site_prices_as_scalar(case):
    game, profile = DOUBLED_SITES[case]
    _assert_rows_price_as_scalar(game, [profile], case)


def _ulps(x, k):
    """``x`` moved ``k`` floats up (down for k < 0), clipped to [0, 1]."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return min(max(x, 0.0), 1.0)


def _adversarial(rng, game, family, count):
    """``count`` profiles of one family.  ``cluster``: every player within
    3 ulps of one centre, a uniform draw, an interval endpoint or a
    reference location, so sites coincide or stand an ulp or two apart.
    ``picks``: every coordinate drawn from -0.0, 0.0, the least subnormal,
    1.0 and the float below it, the quantile locations and dictated
    targets, and the interval endpoints and their float neighbours.
    ``grid``: every coordinate on the 1/120 grid."""
    n = game.n
    anchors = [*quantile_locations(n, game.distribution), *game.mediator.targets]
    ends = [e for pii in game.piis for e in pii]
    picks = [-0.0, 0.0, 5e-324, 1.0, _ulps(1.0, -1), *anchors, *ends]
    picks += [_ulps(e, k) for e in ends for k in (-1, 1)]
    out = []
    for _ in range(count):
        if family == "cluster":
            where = int(rng.integers(3))
            centre = float(rng.random()) if where == 0 or not ends else float(rng.choice(ends if where == 1 else anchors))
            out.append(tuple(_ulps(centre, int(k)) for k in rng.integers(-3, 4, n)))
        elif family == "picks":
            out.append(tuple(picks[k] for k in rng.integers(len(picks), size=n)))
        else:
            out.append(tuple(int(k) / 120 for k in rng.integers(121, size=n)))
    return out


@pytest.mark.parametrize("family", ["cluster", "picks", "grid"])
@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_adversarial_rows_price_as_scalar(density, family):
    for n in (2, 3, 4, 5, 6, 7, 8, 16):
        rng = np.random.default_rng([n, len(density), len(family), 25])
        for name, mediator in {**_mediators(n), "dict-custom": _custom_dictator(n)}.items():
            game = GameSpec(n, mediator, DENSITIES[density])
            _assert_rows_price_as_scalar(game, _adversarial(rng, game, family, 24), (name, n))


@pytest.mark.parametrize("kind", sorted(DENSITIES))
def test_abs_moment_array_equals_scalar(kind):
    dist = DENSITIES[kind]
    rng = np.random.default_rng(len(kind))
    pts = np.concatenate([rng.random((400, 3)), rng.integers(0, 9, (100, 3)) / 8])
    c, a, b = pts[:, 0], np.minimum(pts[:, 1], pts[:, 2]), np.maximum(pts[:, 1], pts[:, 2])
    got = dist.abs_moment_array(c, a, b)
    for k in range(len(pts)):
        assert _bitwise(got[k], dist.abs_moment(c[k], a[k], b[k])), (c[k], a[k], b[k])


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("n", NS)
def test_payoff_rows_equal_scalar_payoff(n, density):
    rng = np.random.default_rng([n, len(density), 5])
    for name, mediator in _mediators(n).items():
        game = GameSpec(n, mediator, DENSITIES[density])
        rows = np.array(_profiles(rng, game, 48 if n <= 8 else 12))
        got = _payoff_rows(game, rows)
        assert got.shape == rows.shape
        for k in range(len(rows)):
            want = _payoff_locs(game, tuple(rows[k]))
            for i in range(n):
                assert _bitwise(got[k, i], want[i]), (name, tuple(rows[k]), i, got[k], want)


@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_payoff_row_alone_equals_row_in_block(density):
    rng = np.random.default_rng([len(density), 7])
    for n in (3, 8):
        for name, mediator in _mediators(n).items():
            game = GameSpec(n, mediator, DENSITIES[density])
            rows = np.array(_profiles(rng, game, 16))
            block = _payoff_rows(game, rows)
            for k in range(len(rows)):
                alone = _payoff_rows(game, rows[k : k + 1])[0]
                assert all(_bitwise(a, b) for a, b in zip(alone, block[k])), (name, k)


@pytest.mark.parametrize("kind", sorted(DENSITIES))
def test_mass_array_equals_scalar(kind):
    dist = DENSITIES[kind]
    rng = np.random.default_rng([len(kind), 11])
    pts = np.concatenate([rng.random((2000, 2)), rng.integers(0, 9, (500, 2)) / 8])
    a, b = pts.min(axis=1), pts.max(axis=1)
    got = dist.mass_array(a, b)
    for k in range(len(pts)):
        assert _bitwise(got[k], dist.mass(a[k], b[k])), (a[k], b[k])


def _scalar_side(side, calls):
    """A random-phase kernel that prices each row by the scalar path, side
    0 the mediator's cost and side 1 its twin's, and counts its rows."""

    def kernel(game, rows):
        calls[side] += len(rows)
        return np.array([_kept_costs(game, _compiled_pieces(game, tuple(row)), 2)[side] for row in rows.tolist()])

    return kernel


@pytest.mark.parametrize("n", [3, 6])
def test_ic_search_equals_row_by_row_pricing(n, monkeypatch):
    for mediator in _mediators(n).values():
        game = GameSpec(n, mediator)
        got = ic_search(game, budget=300, seed=n)
        calls = [0, 0]
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_cost_rows", _scalar_side(0, calls))
            patch.setattr(metrics, "_twin_rows", _scalar_side(1, calls))
            want = ic_search(game, budget=300, seed=n)
        assert got == want
        # Every row's cost and at least the costliest row's twin went
        # through the scalar pricing.
        assert calls[0] == 300 and calls[1] >= 1, calls


def test_ic_search_threads_agree_above_one_chunk():
    game = GameSpec(3, Lime(epsilon=1e-2))
    one = ic_search(game, budget=4500, seed=5, threads=1)
    two = ic_search(game, budget=4500, seed=5, threads=2)
    assert one == two


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("threads", [1, 2])
def test_random_phase_ties_go_to_the_smallest_profile(seed, threads):
    # Every no-intervention gap is exactly 0.0, so the random phase ties on
    # every row, across blocks, draws and jobs, and nothing beats it later.
    est = ic_search(GameSpec(3, Nime()), budget=5000, seed=seed, threads=threads)
    rows = np.random.default_rng(seed).random((5000, 3))
    assert est.search_lower == 0.0
    assert est.argmax_profile == min(map(tuple, rows.tolist()))


def test_random_phase_returns_python_floats():
    # The random phase sets this argmax; it handed back numpy scalars, whose
    # reprs differ from those of the fixture and ascent phases' floats.
    est = ic_search(GameSpec(3, Nime()), budget=5000, seed=1)
    assert type(est.search_lower) is float
    assert [type(y) for y in est.argmax_profile] == [float] * 3


def test_random_phase_draws_the_seed_stream_in_flat_memory(monkeypatch):
    seen = []

    def stub(game, rows):
        seen.append(rows.copy())
        return np.zeros(len(rows))

    monkeypatch.setattr(metrics, "_cost_rows", stub)
    monkeypatch.setattr(metrics, "_twin_rows", lambda game, rows: np.zeros(len(rows)))
    game = GameSpec(2, Nime())
    ic_search(game, budget=5000, seed=4)
    want = np.random.default_rng(4).random((5000, 2))
    assert np.concatenate(seen).view(np.int64).tolist() == want.view(np.int64).tolist()

    # Measured after the run above, so one-time allocations are out of both.
    monkeypatch.setattr(metrics, "_cost_rows", lambda game, rows: rows.sum(axis=1))
    peaks = []
    for budget in (10**4, 2 * 10**5):
        tracemalloc.start()
        ic_search(game, budget=budget, seed=4)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # One draw of the whole budget would hold 3.2 MB at the larger one.
    assert peaks[1] < 1.5 * peaks[0] < 10**6, peaks


def test_row_stream_peaks_like_one_block():
    # Each block's row sums are kept until the stream is put together, so a
    # block's result must not pin the buffer it was summed in.  Beside one
    # block's arrays a stream holds a few arrays the size of its rows: the
    # distinct rows, the kept values and the result.
    game = GameSpec(8, Lime())
    rows = np.random.default_rng(30).random((1500, 8))
    step = metrics._block_rows(game)
    assert len(rows) > 20 * step
    peaks = {}
    for kernel in (_cost_rows, _twin_rows, _payoff_rows):
        for stream in (rows[:step], rows):
            tracemalloc.start()
            metrics._price_rows(kernel, game, stream)
            peaks[kernel.__name__, len(stream)] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        one, many = peaks[kernel.__name__, step], peaks[kernel.__name__, len(rows)]
        assert many < one + 3 * rows.nbytes, peaks
    # The random phase's cost stream: a block's arrays dominate.
    assert peaks["_cost_rows", len(rows)] < 1.5 * peaks["_cost_rows", step], peaks


def _floor_and_fixture(game):
    """ic_search's fixture phase: the best fixture gap and its profile."""
    best = (-math.inf, None)
    for delta in metrics._FIXTURE_DELTAS:
        locs = game.mediator.fixture(game.n, delta)
        if metrics._better(_gap_locs(game, locs), locs, *best):
            best = (_gap_locs(game, locs), locs)
    return best


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("smaller", [True, False])
def test_random_phase_prices_the_twin_only_where_a_row_can_win(smaller, threads, monkeypatch, caplog):
    # Stub kernels: a row's twin costs 0.0, so its gap is its cost, which is
    # the fixture's gap for the rows whose first coordinate is below (above
    # with ``smaller`` off) the fixture's and one ulp less for every other.
    game = GameSpec(3, Lime())
    floor, fixture = _floor_and_fixture(game)
    below = math.nextafter(floor, -math.inf)

    def ties(rows):
        return rows[:, 0] < fixture[0] if smaller else rows[:, 0] > fixture[0]

    def twin(game, rows):
        # A row one ulp below the best never gets this far.
        assert ties(rows).all()
        return np.zeros(len(rows))

    monkeypatch.setattr(metrics, "_cost_rows", lambda game, rows: np.where(ties(rows), floor, below))
    monkeypatch.setattr(metrics, "_twin_rows", twin)
    monkeypatch.setattr(metrics, "_SWEEPS", 0)
    with caplog.at_level(logging.DEBUG, logger="hotelling_mediators"):
        est = ic_search(game, budget=5000, seed=2, threads=threads)
    rows = np.random.default_rng(2).random((5000, 3))
    tied = rows[ties(rows)]
    assert est.search_lower == floor
    # Ties go to the smallest profile, across blocks, draws, jobs and phases.
    assert est.argmax_profile == (min(map(tuple, tied.tolist())) if smaller else fixture)
    [record] = [r for r in caplog.records if r.name == "hotelling_mediators"]
    assert record.args[4] == len(tied)  # twin rows priced
    assert record.args[-1] == ("random" if smaller else "fixture")


# Banded eligibility beside each limited record's protected intervals.
@dataclass(frozen=True)
class BandedLime(Banded, Lime):
    pass


@dataclass(frozen=True)
class BandedGlime(Banded, Glime):
    pass


@dataclass(frozen=True)
class BandedClime(Banded, Clime):
    pass


@pytest.mark.parametrize("density", ["uniform", "zigzag"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_eligible_set_with_intervals_prices_as_scalar(n, density):
    # A kind that is an eligible set with protected intervals compiles with
    # no code of its own: inside an interval only the eligible players
    # outside it may serve.
    rng = np.random.default_rng([n, len(density), 28])
    mediators = [BandedLime(1e-2), BandedGlime(1e-2), BandedClime(min(1 / 8, 1 / (2 * n)), 1e-2)]
    for mediator in mediators:
        game = GameSpec(n, mediator, DENSITIES[density])
        profiles = _profiles(rng, game, 60)
        _assert_rows_price_as_scalar(game, profiles, game.mediator)
        for profile in profiles[:10]:
            policy = compile_policy(game, profile)
            for t in (*profile, *policy.point_dists, *rng.random(4).tolist()):
                assert policy.evaluate(t) == direct(game, profile, t), (game.mediator, profile, t)
