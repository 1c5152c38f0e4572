"""Payoffs, social cost, and intervention cost.

Payoff and social cost are integrals of the mediator's direction rule against
the user density.  Both are evaluated exactly: the rule is compiled into its
piecewise-constant form and every piece contributes a closed-form mass or
absolute-moment term, so no quadrature error enters the results.  A
vectorized Monte Carlo estimator over the raw pointwise rule serves as an
independent cross-check.

The intervention cost of a mediator is the supremum over profiles of how much
its social cost exceeds the no-intervention social cost of the same profile.
The supremum itself is out of numerical reach, so :func:`ic_search` reports a
certified lower estimate (best profile found by fixtures, random sampling and
coordinate ascent) next to the analytic bounds of the mediator's record
(``ic_bounds``).

Single profiles are priced by the scalar path (compile, then sum piece by
piece).  The compiler keeps its last compile, so repeated calls on the same
game object and the same profile (payoff, social cost and gap of one
profile, in any order) compile it once; the gap's no-intervention side is
compiled beside it, never in its place.  The kept compile also keeps its
social cost and its twin's, each priced on first use, so social cost and
then the gap price the mediator's side once, and a repeated gap prices
nothing.  The results are bitwise those of a fresh compile.  Under a
piecewise-linear density every mass and absolute moment is a difference of
(cdf, first-moment) prefixes.  Each compile carries its own memo of
prefixes, which lives and dies with it, so the calls on one compiled
profile compute each point's prefixes once in total and share them between
pieces, facilities, calls and both sides of a gap; every value stays
bitwise what the density's public methods give.  The random phase of
:func:`ic_search`, equilibrium enumeration and the exhaustive equilibrium
check's deviation lines are row streams instead, and one pricer
(:func:`_price_rows`) prices them all: each run of equal rows once, the
rest in blocks through the array compiler and one row integrator, with the
players on the leading axis of every array; the exact check's passes,
short and bounded, take blocks four times as large.  The random phase
prices the two sides of a gap as two streams, the mediator's cost of every
row and then its twin's only for the rows that can still win (see
:func:`_gap_chunk`).  Both compilers build one live candidate set, so every
row's gap and payoffs are bitwise equal to the scalar path's, and both
return the same answers either way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import _MEDIATORS, Dictator, Nime, _integer, _players, validate_profile
from .mediators import _compile, _compiled_pieces, _compiled_rows, _snap_rows, _snap_to_endpoints

__all__ = [
    "payoff",
    "social_cost",
    "intervention_gap",
    "adversarial_profile",
    "IcEstimate",
    "ic_search",
    "direction_weights",
    "mc_payoff",
    "mc_social_cost",
]

_log = logging.getLogger("hotelling_mediators")


def _payoff_locs(game, locs):
    compiled = _compiled_pieces(game, locs)
    mass, _ = game.distribution._integrals(compiled[4])
    out = [0.0] * game.n
    for lo, hi, w in compiled[2]:
        m = mass(lo, hi)
        for i, wi in enumerate(w):
            if wi:
                out[i] += wi * m
    return tuple(out)


def payoff(game, profile):
    """Expected user share of every player; entries sum to one."""
    return _payoff_locs(game, validate_profile(profile, game.n))


def _cost(compiled, abs_moment):
    """Social cost of a compile of :func:`_compiled_pieces`, its facilities
    as the compiler canonicalized them, priced by ``abs_moment`` from the
    density's ``_integrals``."""
    locs, _, pieces, _, _, _ = compiled
    total = 0.0
    for lo, hi, w in pieces:
        for i, wi in enumerate(w):
            if wi:
                total += wi * abs_moment(locs[i], lo, hi)
    return total


def _kept_costs(game, compiled, sides):
    """The compile's cost slot ``[social cost, the no-intervention twin's
    (game.nime_twin) social cost]`` with its first ``sides`` entries priced:
    each is priced on first use and kept for every later call on the
    compile.

    The twin prices the facilities as the mediator's compiler canonicalized
    them, so both sides see the same positions, and both sides share the
    prefix memo of the mediator's compile.  The twin is compiled outside the
    kept compile, so it never evicts the mediator's; a no-intervention game
    is its own twin and shares its cost.
    """
    costs = compiled[5]
    if costs[sides - 1] is None:
        _, abs_moment = game.distribution._integrals(compiled[4])
        if costs[0] is None:
            costs[0] = _cost(compiled, abs_moment)
        if sides == 2:
            twin = game.nime_twin
            costs[1] = costs[0] if twin is game else _cost(_compile(twin, compiled[0]), abs_moment)
    return costs


def social_cost(game, profile):
    """Expected distance a user travels to her assigned facility."""
    return _kept_costs(game, _compiled_pieces(game, validate_profile(profile, game.n)), 1)[0]


def _gap_locs(game, locs):
    cost, twin = _kept_costs(game, _compiled_pieces(game, locs), 2)
    return cost - twin


def _runs(game, locs):
    """Compile canonicalized profiles, held player-major as an ``(n, B)``
    array, into runs: ``(weights, lo, hi)``.

    A run is a maximal stretch of non-empty pieces with equal weights,
    looking through the zero-width padding between them, as the scalar
    compiler coalesces its pieces.  ``weights`` has the row compiler's shape
    ``(n, B, K - 1)`` and is zero except on the first piece of each run,
    which carries the run's weights; ``lo`` and ``hi``, shape ``(B, K - 1)``,
    are the ends of the run that starts at each piece.  This is the one row
    integrator: callers price each run by a per-piece term and sum the
    weighted terms with ``np.cumsum``, which adds sequentially as the scalar
    loops do.
    """
    cands, weights = _compiled_rows(game, locs)
    n, rows, pieces = weights.shape
    index = np.arange(pieces)
    at = np.arange(rows)[:, None]
    open_ = cands[:, :-1] < cands[:, 1:]
    # The last non-empty piece before each piece, or -1.
    last_open = np.maximum.accumulate(np.where(open_, index, -1), axis=1)
    prev = np.concatenate([np.full((rows, 1), -1), last_open[:, :-1]], axis=1)
    # Each piece's weights against those of that piece, gathered from the
    # flattened (profile, piece) plane.
    before = np.take(weights.reshape(n, -1), (at * pieces + np.maximum(prev, 0)).ravel(), axis=1)
    changed = (weights != before.reshape(weights.shape)).any(axis=0)
    start = open_ & ((prev < 0) | changed)
    # A run ends where the next one starts, or at 1.0.
    next_start = np.minimum.accumulate(np.where(start, index, pieces)[:, ::-1], axis=1)[:, ::-1]
    end = np.concatenate([next_start[:, 1:], np.full((rows, 1), pieces)], axis=1)
    return np.where(start, weights, 0.0), cands[:, :-1], np.take(cands, at * (pieces + 1) + end)


def _rows_cost(game, locs):
    """Social cost of every canonicalized profile of an ``(n, B)`` array,
    shape ``(B,)``, bitwise equal to :func:`_cost` of each profile's compile:
    the absolute moments of the runs, summed piece-major, player-minor."""
    weights, lo, hi = _runs(game, locs)
    moments = game.distribution.abs_moment_array(locs[..., None], lo, hi)
    terms = np.where(weights != 0.0, weights * moments, 0.0)
    # A copy: the last column alone would pin the whole cumsum buffer.
    return np.cumsum(terms.transpose(1, 2, 0).reshape(locs.shape[1], -1), axis=1)[:, -1].copy()


def _payoff_rows(game, locs):
    """Payoffs of every row of a ``(B, n)`` array, shape ``(B, n)``, bitwise
    equal to :func:`_payoff_locs` on each row: the masses of the runs,
    summed piece by piece for every player.  The kernel holds the profiles
    player-major, so the result is the transpose of its ``(n, B)`` sums."""
    weights, lo, hi = _runs(game, _snap_rows(game, np.transpose(locs)))
    terms = np.where(weights != 0.0, weights * game.distribution.mass_array(lo, hi), 0.0)
    return np.cumsum(terms, axis=-1)[..., -1].T.copy()


def _cost_rows(game, rows):
    """Social cost of every row of a ``(B, n)`` array, bitwise equal to the
    mediator's side of :func:`_gap_locs` on each row."""
    return _rows_cost(game, _snap_rows(game, np.transpose(rows)))


def _twin_rows(game, rows):
    """The no-intervention twin's social cost of every row of a ``(B, n)``
    array, priced at the facilities as the mediator snaps them, bitwise
    equal to the twin's side of :func:`_gap_locs` on each row.  A row's gap
    is ``_cost_rows - _twin_rows``, bitwise :func:`_gap_locs`."""
    return _rows_cost(game.nime_twin, _snap_rows(game, np.transpose(rows)))


def intervention_gap(game, profile):
    """Social cost of the game's mediator minus the no-intervention social cost.

    Nonnegative for every profile (up to float noise), since no direction rule
    can beat sending each user to her nearest facility.
    """
    return _gap_locs(game, validate_profile(profile, game.n))


# ---------------------------------------------------------------------------
# Adversarial fixtures and analytic bounds
# ---------------------------------------------------------------------------


def adversarial_profile(kind, n, delta=1e-3):
    """Profiles known to drive the intervention gap close to its supremum.

    ``kind`` is a mediator kind string (or a mediator object).  ``delta``
    controls how far the construction stays from degenerate coincidences; it
    must satisfy 0 < delta < 1/(2n) where used.  The quantile-based rule's
    fixture does not need an offset and ignores ``delta``.
    """
    if not isinstance(kind, str):
        kind = kind.kind
    n = _players(n)
    if kind not in _MEDIATORS:
        raise ValueError(f"no adversarial fixture for mediator kind {kind!r}")
    return _MEDIATORS[kind].fixture(n, delta)


# ---------------------------------------------------------------------------
# Intervention-cost search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcEstimate:
    """Outcome of an intervention-cost search.

    ``search_lower`` is a certified lower estimate of the supremum (the best
    gap actually evaluated); ``fixture_lower`` is the gap at the adversarial
    fixture when one exists.  The analytic bounds are copied in for easy
    comparison.
    """

    mediator: object
    n: int
    seed: int
    budget: int
    search_lower: float
    fixture_lower: float | None
    analytic_lower: float | None
    analytic_upper: float | None
    argmax_profile: tuple

    def to_json(self):
        return {
            "mediator": self.mediator.to_json(),
            "n": self.n,
            "seed": self.seed,
            "budget": self.budget,
            "searchLower": self.search_lower,
            "fixtureLower": self.fixture_lower,
            "analyticLower": self.analytic_lower,
            "analyticUpper": self.analytic_upper,
            "argmaxProfile": list(self.argmax_profile),
        }


_FIXTURE_DELTAS = (1e-2, 1e-3, 1e-4)
# Coordinate-ascent sweeps after the random phase; the ascent stops early at
# the first sweep that improves no coordinate.
_SWEEPS = 50
# Rows a random-phase job draws and prices at once, and the fewest it holds.
_DRAW_ROWS = 2048
# Weight entries per block of random rows priced at once: large enough to
# amortize numpy's per-call overhead, small enough to keep peak memory flat.
# The random phase and enumeration's waves take this size; the exact check's
# passes, which are short and bounded, take ``equilibrium._STREAM_BLOCKS``
# blocks per kernel call instead.  At 32,768 for every caller, search's and
# enumeration's peak memory rose by 4-6% and their throughput did not.
_BLOCK_ELEMENTS = 8192
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The one profile cap: enumeration refuses grids with more sorted profiles
# than this, and :func:`ic_search` larger budgets.
_MAX_PROFILES = 10**8


def _block_rows(game):
    """Rows per block, so one block's ``(n, rows, pieces)`` weight arrays
    hold about ``_BLOCK_ELEMENTS`` entries; a row has n + 3 * intervals
    pieces."""
    pieces = game.n + 3 * len(game.piis)
    return max(1, _BLOCK_ELEMENTS // (pieces * game.n))


def _pool_map(fn, jobs, threads):
    """``[fn(job) for job in jobs]``, over ``threads`` worker processes when
    there is more than one of each.  The pool module is imported only then:
    loading it costs about 1.7 MB of resident memory."""
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def _better(gap, locs, best_gap, best_locs):
    # Max by gap; ties resolved toward the lexicographically smallest profile
    # so parallel chunking cannot change the reported argmax.
    if gap > best_gap:
        return True
    return gap == best_gap and (best_locs is None or locs < best_locs)


def _price_rows(kernel, game, rows, blocks=1):
    """``kernel`` (:func:`_payoff_rows`, :func:`_cost_rows` or
    :func:`_twin_rows`) of a ``(B, n)`` array as ``(values, priced)``, the
    one loop that prices row streams: each run of rows equal bit for bit
    (an int64 view, so the sign of a zero counts) is priced once, in blocks
    of ``blocks * _block_rows(game)`` distinct rows.  The kernel prices a
    row bitwise as it prices it alone, so the values are those of pricing
    every row."""
    bits = rows.view(np.int64)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    distinct = rows[new]
    step = blocks * _block_rows(game)
    values = [kernel(game, distinct[k : k + step]) for k in range(0, len(distinct), step)]
    return np.concatenate(values or [rows[:0]])[np.cumsum(new) - 1], len(distinct)


def _gap_chunk(args):
    """``(gap, profile, twins)`` of random profiles ``start`` to ``stop - 1``
    of ``seed``'s stream: the best gap at or above ``floor`` and its
    profile, as a float and a tuple of floats (``floor`` and None when no
    gap reaches it), and how many rows had their twin priced.

    The rows are drawn ``_DRAW_ROWS`` at a time from the stream advanced
    past the rows before them, so every row is bitwise that row of one
    ``default_rng(seed).random((budget, n))`` draw.  Each draw prices the
    mediator's cost of every row, then the twin's cost (see
    :func:`_twin_rows`) of the rows in descending-cost order, one
    ``_block_rows(game)`` block at a time, only for rows whose cost is at or
    above the best gap so far, and stops at the first block with none.
    That is exact: a twin's cost is >= 0 and float subtraction is monotone,
    so a row's gap is at most its cost, and a row whose cost is below the
    best can neither beat it nor tie it.  So the best gap and its
    smallest profile are those of pricing every row's gap.
    """
    game, seed, start, stop, floor = args
    rng = np.random.Generator(np.random.PCG64(seed).advance(start * game.n))
    step = _block_rows(game)
    best_gap, best_locs, twins = floor, None, 0
    for k in range(start, stop, _DRAW_ROWS):
        rows = rng.random((min(_DRAW_ROWS, stop - k), game.n))
        costs, _ = _price_rows(_cost_rows, game, rows)
        order = np.argsort(-costs, kind="stable")
        for b in range(0, len(order), step):
            pick = order[b : b + step]
            pick = pick[costs[pick] >= best_gap]
            if not len(pick):
                break
            twins += len(pick)
            gaps = costs[pick] - _price_rows(_twin_rows, game, rows[pick])[0]
            top = float(gaps.max())
            locs = min(map(tuple, rows[pick][gaps == top].tolist()))
            if _better(top, locs, best_gap, best_locs):
                best_gap, best_locs = top, locs
    return best_gap, best_locs, twins


def _golden_max(f):
    """Golden-section maximization on [0, 1] to a 1e-6 bracket; returns the best point seen."""
    best_x, best_f = 0.0, f(0.0)
    f_hi = f(1.0)
    if f_hi > best_f:
        best_x, best_f = 1.0, f_hi
    a, b = 0.0, 1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-6:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if fc > best_f:
            best_x, best_f = c, fc
        if fd > best_f:
            best_x, best_f = d, fd
    return best_x, best_f


def ic_search(game, budget, seed=0, threads=1):
    """Search for profiles with a large intervention gap.

    Evaluates the known adversarial fixtures (a few offsets each), ``budget``
    uniformly random profiles drawn from ``seed``, and then refines the best
    profile found by coordinate ascent with a golden-section line search per
    coordinate.  The random profiles are drawn per job in flat memory and
    priced in blocks of rows at once, each gap bitwise equal to pricing its
    profile alone; every job starts from the fixtures' best gap as its
    floor and prices the twin only for the profiles that can still reach
    the best (see :func:`_gap_chunk`).  A coordinate's line
    depends only on the other coordinates, so its search is skipped while
    none of them has moved since the last one: it would return what it
    returned then.  Deterministic for fixed ``seed`` regardless of
    ``threads``.  A ``budget`` that is no integer in [1,
    ``_MAX_PROFILES``], ``threads`` that is no integer >= 1 and a ``seed``
    that is no integer >= 0 raise ValueError before any profile is priced,
    so every estimate is reproducible from the seed it reports.  With the
    ``hotelling_mediators`` logger at DEBUG it logs one record: rows drawn,
    rows whose twin was priced, line searches run and skipped, the ascent's
    gap evaluations, and the phase that set the argmax.
    """
    budget = _integer("budget", budget, 1)
    if budget > _MAX_PROFILES:
        raise ValueError(f"budget must be an integer in [1, {_MAX_PROFILES}], got {budget!r}")
    threads = _integer("threads", threads, 1)
    seed = _integer("seed", seed, 0)
    n = game.n

    best_gap, best_locs = -math.inf, None
    fixture_lower = None
    for delta in _FIXTURE_DELTAS:
        try:
            locs = game.mediator.fixture(n, delta)
        except ValueError:
            continue
        gap = _gap_locs(game, locs)
        if fixture_lower is None or gap > fixture_lower:
            fixture_lower = gap
        if _better(gap, locs, best_gap, best_locs):
            best_gap, best_locs = gap, locs

    phase = "fixture"
    chunk = budget if threads == 1 else max(_DRAW_ROWS, math.ceil(budget / (threads * 8)))
    jobs = [(game, seed, k, min(k + chunk, budget), best_gap) for k in range(0, budget, chunk)]
    twins = 0
    for gap, locs, priced in _pool_map(_gap_chunk, jobs, threads):
        twins += priced
        if locs is not None and _better(gap, locs, best_gap, best_locs):
            best_gap, best_locs, phase = gap, locs, "random"

    # Coordinate ascent from the incumbent.  ``searched[i]`` is the number of
    # moves made when coordinate i's line was last searched.
    current = list(best_locs)
    current_gap = best_gap
    moves = lines = skipped = evaluations = 0
    searched = [-1] * n
    for _ in range(_SWEEPS):
        improved = False
        for i in range(n):
            if searched[i] == moves:
                skipped += 1
                continue

            def line(y, i=i):
                nonlocal evaluations
                evaluations += 1
                trial = current.copy()
                trial[i] = y
                return _gap_locs(game, tuple(trial))

            lines += 1
            y, fy = _golden_max(line)
            if fy > current_gap + 1e-12:
                current[i] = y
                current_gap = fy
                improved = True
                moves += 1
            searched[i] = moves
        if not improved:
            break
    if _better(current_gap, tuple(current), best_gap, best_locs):
        best_gap, best_locs, phase = current_gap, tuple(current), "ascent"
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "ic_search n=%d budget=%d seed=%d: %d rows drawn, %d twin rows priced, %d line searches run, "
            "%d skipped, %d ascent gap evaluations, argmax set by the %s phase",
            n, budget, seed, budget, twins, lines, skipped, evaluations, phase,
        )

    lower, upper = game.mediator.ic_bounds(n)
    return IcEstimate(
        mediator=game.mediator,
        n=n,
        seed=seed,
        budget=budget,
        search_lower=best_gap,
        fixture_lower=fixture_lower,
        analytic_lower=lower,
        analytic_upper=upper,
        argmax_profile=best_locs,
    )


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def _nearest_w_rows(D, cols):
    sub = D[:, cols]
    dmin = sub.min(axis=1, keepdims=True)
    tie = sub == dmin
    w = tie / tie.sum(axis=1, keepdims=True)
    W = np.zeros_like(D)
    W[:, cols] = w
    return W


def direction_weights(game, profile, ts):
    """Vectorized pointwise rule: one direction distribution per sample.

    Independent re-implementation of the scalar rules over numpy arrays; used
    by the Monte Carlo estimators so the cross-check does not share the
    piecewise integration path.
    """
    return _direction_weights(game, _snapped(game, profile), ts)


def _snapped(game, profile):
    """The validated profile, snapped onto interval endpoints, as an array."""
    return np.asarray(_snap_to_endpoints(game, validate_profile(profile, game.n)))


def _direction_weights(game, locs, ts):
    """:func:`direction_weights` at snapped facility locations ``locs``."""
    piis = game.piis
    ts = np.asarray(ts, dtype=float)
    n = game.n
    D = np.abs(ts[:, None] - locs[None, :])
    m = game.mediator
    all_cols = np.arange(n)

    if isinstance(m, Nime):
        return _nearest_w_rows(D, all_cols)
    if isinstance(m, Dictator):
        targets = np.asarray(m.targets)
        obeying = np.where(np.abs(locs - targets) <= m.equality_tol)[0]
        if obeying.size:
            return _nearest_w_rows(D, obeying)
        return np.full((len(ts), n), 1.0 / n)

    half = m.half_split
    eps = m.epsilon
    W = np.empty((len(ts), n))
    covered = np.zeros(len(ts), dtype=bool)
    for lo, hi in piis:
        rows = (ts > lo) & (ts < hi)
        if not rows.any():
            continue
        covered |= rows
        left = np.where(locs <= lo)[0]
        right = np.where(locs >= hi)[0]
        Dr = D[rows]
        if left.size and right.size:
            if half:
                W[rows] = 0.5 * _nearest_w_rows(Dr, left) + 0.5 * _nearest_w_rows(Dr, right)
            else:
                W[rows] = _nearest_w_rows(Dr, np.concatenate([left, right]))
        elif left.size or right.size:
            side = left if left.size else right
            W[rows] = (1.0 - eps) * _nearest_w_rows(Dr, side) + eps / n
        else:
            W[rows] = _nearest_w_rows(D[rows], all_cols)
    rest = ~covered
    if rest.any():
        W[rest] = _nearest_w_rows(D[rest], all_cols)
    return W


def _mc_samples(game, locs, n_samples, seed):
    n_samples = _integer("n_samples", n_samples, 2)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    ts = game.distribution.quantile_array(rng.random(n_samples))
    return ts, _direction_weights(game, locs, ts)


def mc_payoff(game, profile, n_samples=10**6, seed=0):
    """Monte Carlo payoff estimate: (means, standard errors) per player;
    an ``n_samples`` that is no integer >= 2 or a ``seed`` that is no
    integer >= 0 raises ValueError.

    A player whose N sampled weights all agree, say a share no sample lands
    in, has a sample standard error of 0, which would read as exact; its
    error is sqrt(x (1 - x) / N) instead, at x = (N mean + 1) / (N + 2), so
    that it stays positive when the mean is 0 or 1.
    """
    _, W = _mc_samples(game, _snapped(game, profile), n_samples, seed)
    mean = W.mean(axis=0)
    se = W.std(axis=0, ddof=1) / math.sqrt(n_samples)
    x = (n_samples * mean + 1.0) / (n_samples + 2)
    return mean, np.where(se == 0.0, np.sqrt(x * (1.0 - x) / n_samples), se)


def mc_social_cost(game, profile, n_samples=10**6, seed=0):
    """Monte Carlo social-cost estimate: (mean, standard error); an
    ``n_samples`` that is no integer >= 2 or a ``seed`` that is no integer
    >= 0 raises ValueError."""
    locs = _snapped(game, profile)
    ts, W = _mc_samples(game, locs, n_samples, seed)
    per_user = (W * np.abs(ts[:, None] - locs[None, :])).sum(axis=1)
    return per_user.mean(), per_user.std(ddof=1) / math.sqrt(n_samples)
