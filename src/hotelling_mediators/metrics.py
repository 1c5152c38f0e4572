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
coordinate ascent) next to the analytic bounds from
:func:`analytic_ic_bounds`.

Single profiles are priced by the scalar path (compile, then sum piece by
piece).  The random phase of :func:`ic_search` prices its rows in blocks
through the array compiler instead; every row's gap is bitwise equal to the
scalar path's, so the search returns the same estimate either way.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .core import _MEDIATORS, Dictator, Nime, _players, validate_profile
from .mediators import _compiled_pieces, _compiled_rows, _snap_rows, _snap_to_endpoints

__all__ = [
    "payoff",
    "social_cost",
    "intervention_gap",
    "adversarial_profile",
    "analytic_ic_bounds",
    "IcEstimate",
    "ic_search",
    "direction_weights",
    "mc_payoff",
    "mc_social_cost",
]


def _payoff_locs(game, locs):
    _, _, pieces, _ = _compiled_pieces(game, locs)
    dist = game.distribution
    out = [0.0] * game.n
    for lo, hi, w in pieces:
        mass = dist.mass(lo, hi)
        for i, wi in enumerate(w):
            if wi:
                out[i] += wi * mass
    return tuple(out)


def payoff(game, profile):
    """Expected user share of every player; entries sum to one."""
    return _payoff_locs(game, validate_profile(profile, game.n))


def _pieces_cost(dist, locs, pieces):
    total = 0.0
    for lo, hi, w in pieces:
        for i, wi in enumerate(w):
            if wi:
                total += wi * dist.abs_moment(locs[i], lo, hi)
    return total


def _social_cost_locs(game, locs):
    locs, _, pieces, _ = _compiled_pieces(game, locs)
    return _pieces_cost(game.distribution, locs, pieces)


def social_cost(game, profile):
    """Expected distance a user travels to her assigned facility."""
    return _social_cost_locs(game, validate_profile(profile, game.n))


def _gap_locs(game, nime_game, locs):
    # The no-intervention side prices the facilities as the mediator's
    # compiler canonicalized them, so both sides see the same positions.
    locs, _, pieces, _ = _compiled_pieces(game, locs)
    cost = _pieces_cost(game.distribution, locs, pieces)
    return cost - _social_cost_locs(nime_game, locs)


def _rows_cost(game, locs):
    """Social cost of every canonicalized ``(B, n)`` row, bitwise equal to
    :func:`_social_cost_locs` on each row.

    Runs of non-empty pieces with equal weights merge into one piece, looking
    through the zero-width padding between them, as the scalar compiler
    coalesces its pieces.  The terms are summed piece-major, player-minor
    with ``np.cumsum``, which adds sequentially as the scalar loop does.
    """
    cands, weights = _compiled_rows(game, locs)
    rows, pieces, n = weights.shape
    at = np.arange(rows)[:, None]
    index = np.arange(pieces)
    open_ = cands[:, :-1] < cands[:, 1:]
    # The last non-empty piece before each piece, or -1.
    last_open = np.maximum.accumulate(np.where(open_, index, -1), axis=1)
    prev = np.concatenate([np.full((rows, 1), -1), last_open[:, :-1]], axis=1)
    changed = (weights != weights[at, np.maximum(prev, 0)]).any(axis=-1)
    start = open_ & ((prev < 0) | changed)
    # A run ends where the next one starts, or at 1.0.
    next_start = np.minimum.accumulate(np.where(start, index, pieces)[:, ::-1], axis=1)[:, ::-1]
    end = np.concatenate([next_start[:, 1:], np.full((rows, 1), pieces)], axis=1)
    lo = cands[:, :-1][..., None]
    hi = cands[at, end][..., None]
    moments = game.distribution.abs_moment_array(locs[:, None, :], lo, hi)
    terms = np.where(start[..., None] & (weights != 0.0), weights * moments, 0.0)
    return np.cumsum(terms.reshape(rows, pieces * n), axis=1)[:, -1]


def _gap_rows(game, rows):
    """Intervention gap of every row of a ``(B, n)`` array, bitwise equal to
    :func:`_gap_locs` on each row.

    The mediator and its no-intervention twin are each priced on their own
    candidate set, exactly as the scalar path prices them.
    """
    locs = _snap_rows(rows, game.piis)
    return _rows_cost(game, locs) - _rows_cost(_nime_twin(game), locs)


def intervention_gap(game, profile):
    """Social cost of the game's mediator minus the no-intervention social cost.

    Nonnegative for every profile (up to float noise), since no direction rule
    can beat sending each user to her nearest facility.
    """
    locs = validate_profile(profile, game.n)
    return _gap_locs(game, _nime_twin(game), locs)


def _nime_twin(game):
    return replace(game, mediator=Nime())


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


def analytic_ic_bounds(mediator, n):
    """Proven (lower, upper) bounds on the intervention cost, or None.

    All bounds are for the uniform user distribution.  The limited-
    intervention lower bound carries its epsilon dependence; the others are
    epsilon-free.
    """
    return mediator.ic_bounds(_players(n))


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
# Weight entries per block of random rows priced at once: large enough to
# amortize numpy's per-call overhead, small enough to keep peak memory flat.
_BLOCK_ELEMENTS = 8192
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _better(gap, locs, best_gap, best_locs):
    # Max by gap; ties resolved toward the lexicographically smallest profile
    # so parallel chunking cannot change the reported argmax.
    if gap > best_gap:
        return True
    return gap == best_gap and (best_locs is None or locs < best_locs)


def _gap_chunk(args):
    game, rows = args
    # Rows per block, so one block's (rows, pieces, n) weight arrays hold
    # about _BLOCK_ELEMENTS entries; a row has 2n + 3 * intervals pieces.
    pieces = 2 * game.n + 3 * len(game.piis)
    step = max(1, _BLOCK_ELEMENTS // (pieces * game.n))
    best_gap, best_locs = -math.inf, None
    for k in range(0, len(rows), step):
        block = rows[k : k + step]
        gaps = _gap_rows(game, block)
        top = gaps.max()
        for j in np.flatnonzero(gaps == top):
            locs = tuple(block[j])
            if _better(top, locs, best_gap, best_locs):
                best_gap, best_locs = top, locs
    return best_gap, best_locs


def _golden_max(f, lo=0.0, hi=1.0, tol=1e-6):
    """Golden-section maximization on [lo, hi]; returns the best point seen."""
    best_x, best_f = lo, f(lo)
    f_hi = f(hi)
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
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


def ic_search(game, budget, seed=0, include_fixtures=True, threads=1, sweeps=50):
    """Search for profiles with a large intervention gap.

    Evaluates the known adversarial fixtures (a few offsets each), ``budget``
    uniformly random profiles drawn from ``seed``, and then refines the best
    profile found by coordinate ascent with a golden-section line search per
    coordinate.  The random profiles are priced in blocks of rows at once,
    each gap bitwise equal to pricing its profile alone.  Deterministic for
    fixed ``seed`` regardless of ``threads``.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    nime_game = _nime_twin(game)
    n = game.n

    best_gap, best_locs = -math.inf, None
    fixture_lower = None
    if include_fixtures:
        for delta in _FIXTURE_DELTAS:
            try:
                locs = game.mediator.fixture(n, delta)
            except ValueError:
                break
            gap = _gap_locs(game, nime_game, locs)
            if fixture_lower is None or gap > fixture_lower:
                fixture_lower = gap
            if _better(gap, locs, best_gap, best_locs):
                best_gap, best_locs = gap, locs

    rng = np.random.default_rng(seed)
    samples = rng.random((budget, n))
    chunk = 2048
    jobs = [(game, samples[k : k + chunk]) for k in range(0, budget, chunk)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_gap_chunk, jobs))
    else:
        results = [_gap_chunk(job) for job in jobs]
    for gap, locs in results:
        if locs is not None and _better(gap, locs, best_gap, best_locs):
            best_gap, best_locs = gap, locs

    # Coordinate ascent from the incumbent.
    current = list(best_locs)
    current_gap = best_gap
    for _ in range(sweeps):
        improved = False
        for i in range(n):
            def line(y, i=i):
                trial = current.copy()
                trial[i] = y
                return _gap_locs(game, nime_game, tuple(trial))

            y, fy = _golden_max(line)
            if fy > current_gap + 1e-12:
                current[i] = y
                current_gap = fy
                improved = True
        if not improved:
            break
    if _better(current_gap, tuple(current), best_gap, best_locs):
        best_gap, best_locs = current_gap, tuple(current)

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
    locs = validate_profile(profile, game.n)
    piis = game.piis
    locs = np.asarray(_snap_to_endpoints(locs, piis))
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


def _mc_samples(game, profile, n_samples, seed):
    rng = np.random.default_rng(seed)
    ts = game.distribution.quantile_array(rng.random(n_samples))
    W = direction_weights(game, profile, ts)
    return ts, W


def mc_payoff(game, profile, n_samples=10**6, seed=0):
    """Monte Carlo payoff estimate: (means, standard errors) per player."""
    _, W = _mc_samples(game, profile, n_samples, seed)
    return W.mean(axis=0), W.std(axis=0, ddof=1) / math.sqrt(n_samples)


def mc_social_cost(game, profile, n_samples=10**6, seed=0):
    """Monte Carlo social-cost estimate: (mean, standard error)."""
    locs = np.asarray(_snap_to_endpoints(validate_profile(profile, game.n), game.piis))
    ts, W = _mc_samples(game, profile, n_samples, seed)
    per_user = (W * np.abs(ts[:, None] - locs[None, :])).sum(axis=1)
    return per_user.mean(), per_user.std(ddof=1) / math.sqrt(n_samples)
