"""Direction rules and their compilation into exact piecewise policies.

Five mediators are implemented.  Their records in :mod:`hotelling_mediators.core`
own everything particular to a kind (parameters, wire format, protected
intervals, which a game works out once into ``game.piis``, bounds, fixtures
and equilibria); this module holds the rules and the compilers.  The rules
come in three families: nearest facility, dictated targets, and limited
intervention, whose records differ only in their intervals, ``epsilon`` and
the ``half_split`` flag.  Each rule maps a strategy profile and a user
location to a distribution over player indices:

* ``nime`` — send the user to the nearest facility, splitting ties uniformly.
* ``dict`` — nearest facility among the players standing at their dictated
  target; disobeying players get nothing, and if nobody obeys the user goes
  to a uniformly random player.
* ``lime`` — like ``nime`` outside the protected intervals that sit between
  consecutive socially optimal locations; inside such an interval the user is
  served by the nearest facility *outside* it, except that with probability
  ``epsilon`` she is sent to a random player when only one side of the
  interval is occupied.
* ``glime`` — same scheme with interval ends at the odd quantiles of the user
  distribution, and a 50/50 split between the nearest-left and nearest-right
  outside facility when both sides are occupied.
* ``clime`` — same scheme as ``lime`` but with just two protected intervals
  of half-width ``lam`` centered at 1/n and (n-1)/n (a single interval when
  n = 2).

For fixed profile and mediator every rule is piecewise constant in the user
location, so each (mediator, profile) pair compiles into a
:class:`PiecewisePolicy`: an exact list of breakpoints with one direction
distribution per open piece.  All payoff and social-cost integrals downstream
run over these pieces in closed form.

Compilation is linear-size.  The rule is bound to the profile first: the
facilities it chooses among, and per protected interval the outside
facilities and the branch they select, are resolved once per profile rather
than once per user.  The candidate breakpoints are O(n): 0 and 1, the
facilities, the midpoints of adjacent distinct sites, the interval endpoints,
and per interval one midpoint across it (see :func:`_policy_breakpoints`).
The bound rule scans O(n) facilities once per piece, so a profile compiles
in O(n^2) time.

:func:`_compiled_rows` is the same compiler over a ``(B, n)`` array of
profiles, used to price many random profiles at once.  Its candidates are
padded to one width with duplicates, and every non-empty piece it yields is
bitwise the scalar compiler's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import UNIFORM, Dictator, Nime, _players, validate_location, validate_profile

__all__ = [
    "direct",
    "pii_intervals",
    "PiecewisePolicy",
    "compile_policy",
]


def _nearest_weights(locs, t, subset=None):
    """Nearest-facility weights over ``subset`` (all players by default).

    Ties are split uniformly; distances compare exactly, so only players at
    bit-identical distance share a tie.
    """
    n = len(locs)
    if subset is None:
        subset = range(n)
    dmin = None
    winners = None
    for i in subset:
        d = abs(locs[i] - t)
        if dmin is None or d < dmin:
            dmin = d
            winners = [i]
        elif d == dmin:
            winners.append(i)
    w = 1.0 / len(winners)
    out = [0.0] * n
    for i in winners:
        out[i] = w
    return tuple(out)


# A facility this close to a protected-interval endpoint is canonicalized
# onto it before any evaluation.  Interval endpoints are derived quantities
# (for example 1/n + lam or a quantile), and profiles commonly arrive through
# decimal round-trips (command-line flags, JSON), so a location that equals
# an endpoint mathematically can land slightly inside; the snap absorbs both
# float rounding and 7-significant-digit decimal input while staying an order
# of magnitude below the 1e-6 one-sided probes used by equilibrium
# certification, which must keep sampling genuinely-inside behavior.  Users
# are never snapped: a user precisely at an endpoint follows the
# no-intervention branch, and anything wider would bias the integrals.
_PII_FACILITY_SNAP = 1e-7


def _snap_to_endpoints(locs, piis):
    """Canonicalize facilities onto interval endpoints they almost touch."""
    if not piis:
        return locs
    out = None
    for lo, hi in piis:
        for i, s in enumerate(out if out is not None else locs):
            for e in (lo, hi):
                if s != e and abs(s - e) <= _PII_FACILITY_SNAP:
                    if out is None:
                        out = list(locs)
                    out[i] = e
                    break
    return locs if out is None else tuple(out)


def _dictator_rule(locs, targets, equality_tol):
    """Bind the dictated-targets rule to one profile: ``(rule, sites)``.

    Obeying players (|s_i - target_i| <= equality_tol) share the user by the
    nearest rule restricted to them, and their locations are the ``sites``.
    If nobody obeys, every user is assigned uniformly at random.
    """
    n = len(locs)
    obeying = [i for i in range(n) if abs(locs[i] - targets[i]) <= equality_tol]
    if not obeying:
        uniform = (1.0 / n,) * n
        return (lambda t: uniform), ()
    return (lambda t: _nearest_weights(locs, t, obeying)), [locs[i] for i in obeying]


def _limited_rule(locs, piis, epsilon, half_split):
    """Bind the limited-intervention rules to one canonicalized profile.

    ``piis`` are disjoint open intervals in increasing order and ``locs`` are
    canonicalized (facilities sit exactly on any endpoint they are meant to
    occupy).  Inside an interval, facilities strictly inside are skipped:
    users go to the nearest facility outside (``half_split=False``) or 50/50
    to the nearest-left / nearest-right outside facility
    (``half_split=True``).  With one occupied side only, an ``epsilon`` share
    is redirected uniformly at random; with no outside facility at all the
    rule degrades to plain nearest.  At interval endpoints and outside every
    interval the rule is plain nearest.

    The outside facilities of an interval, and the branch they select, are
    resolved once per bound profile, for the first user inside it; after
    that a user costs one bisection for her interval and a scan of the
    facilities bound to it.
    """
    order = sorted(range(len(locs)), key=locs.__getitem__)
    ranked = [locs[i] for i in order]
    los = [lo for lo, _ in piis]
    branches = [None] * len(piis)

    def rule(t):
        k = bisect_left(los, t) - 1  # the last interval with lo < t
        if k < 0 or t >= piis[k][1]:
            return _nearest_weights(locs, t)
        branch = branches[k]
        if branch is None:
            lo, hi = piis[k]
            left = order[: bisect_right(ranked, lo)]
            right = order[bisect_left(ranked, hi) :]
            branch = branches[k] = _interval_branch(locs, left, right, epsilon, half_split)
        return branch(t)

    return rule


def _interval_branch(locs, left, right, epsilon, half_split):
    """Rule for users strictly inside one interval, given the facilities at
    or left of it (``left``) and at or right of it (``right``)."""
    if left and right:
        if half_split:

            def split(t):
                wl = _nearest_weights(locs, t, left)
                wr = _nearest_weights(locs, t, right)
                return tuple(0.5 * a + 0.5 * b for a, b in zip(wl, wr))

            return split
        both = left + right
        return lambda t: _nearest_weights(locs, t, both)
    if left or right:
        side = left or right
        keep = 1.0 - epsilon
        u = epsilon / len(locs)
        return lambda t: tuple(keep * x + u for x in _nearest_weights(locs, t, side))
    return lambda t: _nearest_weights(locs, t)


def pii_intervals(mediator, n, dist=UNIFORM):
    """Potentially intervened intervals of a mediator for an n-player game.

    Open, pairwise disjoint intervals inside (0, 1); empty for the rules that
    never override the nearest-facility assignment.  The quantile-based rule
    needs the user distribution to place its interval ends.
    """
    return mediator.intervals(_players(n), dist)


def _pointwise_rule(game, locs):
    """Bind a game and a profile canonicalized against ``game.piis`` into
    ``(rule, sites)``.

    ``rule`` is a plain ``t -> distribution`` callable that makes each
    per-profile decision once.  ``sites`` are the locations of the
    facilities it chooses among by distance: the obeying ones under the
    dictator rule, all of them otherwise.
    """
    m = game.mediator
    if isinstance(m, Nime):
        return (lambda t: _nearest_weights(locs, t)), locs
    if isinstance(m, Dictator):
        return _dictator_rule(locs, m.targets, m.equality_tol)
    return _limited_rule(locs, game.piis, m.epsilon, m.half_split), locs


def direct(game, profile, t):
    """Evaluate the game's mediator pointwise: user ``t`` -> distribution."""
    locs = validate_profile(profile, game.n)
    t = validate_location(t)
    rule, _ = _pointwise_rule(game, _snap_to_endpoints(locs, game.piis))
    return rule(t)


# ---------------------------------------------------------------------------
# Policy compilation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePolicy:
    """Exact piecewise-constant form of a mediator applied to one profile.

    ``piece_dists[k]`` is the direction distribution on the open interval
    ``(breakpoints[k], breakpoints[k+1])``.  ``point_dists`` records the rule
    at the breakpoints themselves; those are measure-zero and irrelevant for
    integration, but keep pointwise evaluation faithful.
    """

    breakpoints: tuple
    piece_dists: tuple
    point_dists: dict

    def evaluate(self, t):
        t = validate_location(t)
        if t in self.point_dists:
            return self.point_dists[t]
        k = bisect_right(self.breakpoints, t) - 1
        k = min(max(k, 0), len(self.piece_dists) - 1)
        return self.piece_dists[k]

    @property
    def pieces(self):
        bps = self.breakpoints
        return tuple(
            (bps[k], bps[k + 1], self.piece_dists[k]) for k in range(len(self.piece_dists))
        )


def _policy_breakpoints(locs, sites, piis):
    """Candidate locations where the bound rule may change: O(n) of them.

    ``sites`` are the sorted distinct locations the rule chooses among.  The
    candidates are 0 and 1, every facility, the midpoint of every pair of
    adjacent sites, every protected-interval endpoint, and per interval the
    midpoint between the last site <= lo and the first site >= hi when it
    falls inside the interval.

    The set is complete.  Inside an interval the branch is fixed for the
    profile, so the rule can only change where the nearest facility of the
    scanned subset does.  Outside every interval, and inside one with no
    outside facility, the whole site set is scanned, and its nearest site
    changes only at an adjacent-site midpoint.  Inside an interval with both
    sides occupied, the nearest of the outside facilities is the last site
    <= lo or the first site >= hi, so it changes only at their midpoint.  The
    one-sided and half-split branches pick the nearest facility of one side,
    which cannot change while the user stays strictly inside.  The interval
    endpoints bound those branches.  A facility is no switch point unless it
    is also one of the candidates above; the facilities are listed so a
    compiled policy records its value at each of them explicitly.  In floats
    a nearest-facility switch can land one ulp past its midpoint, which moves
    a piece boundary, and so an integral, by at most that ulp.
    """
    points = {0.0, 1.0}
    points.update(locs)
    points.update(0.5 * (a + b) for a, b in zip(sites, sites[1:]))
    for lo, hi in piis:
        points.add(lo)
        points.add(hi)
        k = bisect_right(sites, lo)
        j = bisect_left(sites, hi)
        if k and j < len(sites):
            mid = 0.5 * (sites[k - 1] + sites[j])
            if lo < mid < hi:
                points.add(mid)
    return sorted(points)


def _compiled_pieces(game, locs):
    """Canonicalized locations plus (lo, hi, distribution) pieces over (0, 1).

    Facilities are snapped onto interval endpoints once, here, and the rule
    is bound to the snapped profile once.  Adjacent pieces with identical
    distributions are coalesced; the returned breakpoint list still holds
    every candidate switch point, where the rule may deviate pointwise
    (ties, interval endpoints).
    """
    piis = game.piis
    locs = _snap_to_endpoints(locs, piis)
    rule, sites = _pointwise_rule(game, locs)
    bps = _policy_breakpoints(locs, sorted(set(sites)), piis)
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        d = rule(0.5 * (lo + hi))
        if pieces and pieces[-1][2] == d:
            pieces[-1] = (pieces[-1][0], hi, d)
        else:
            pieces.append((lo, hi, d))
    return locs, bps, pieces, rule


def compile_policy(game, profile, include_point_dists=True):
    """Compile the game's mediator and a profile into an exact policy."""
    locs = validate_profile(profile, game.n)
    _, bps, pieces, rule = _compiled_pieces(game, locs)
    point_dists = {b: rule(b) for b in bps} if include_point_dists else {}
    return PiecewisePolicy(
        breakpoints=tuple(p[0] for p in pieces) + (1.0,),
        piece_dists=tuple(d for _, _, d in pieces),
        point_dists=point_dists,
    )


# ---------------------------------------------------------------------------
# Row compilation: many profiles at once
# ---------------------------------------------------------------------------


def _snap_rows(locs, piis):
    """:func:`_snap_to_endpoints` applied to every row of a ``(B, n)`` array."""
    out = np.array(locs, dtype=float)
    for lo, hi in piis:
        near_lo = (out != lo) & (np.abs(out - lo) <= _PII_FACILITY_SNAP)
        near_hi = ~near_lo & (out != hi) & (np.abs(out - hi) <= _PII_FACILITY_SNAP)
        out[near_lo] = lo
        out[near_hi] = hi
    return out


def _nearest_rows(dists, subset):
    """:func:`_nearest_weights` over the last axis, restricted to ``subset``."""
    masked = np.where(subset, dists, np.inf)
    tie = (masked == masked.min(axis=-1, keepdims=True)) & subset
    count = tie.sum(axis=-1, keepdims=True)
    return np.where(tie, 1.0 / np.maximum(count, 1), 0.0)


def _compiled_rows(game, locs):
    """Array form of :func:`_compiled_pieces` over canonicalized ``(B, n)`` rows.

    Returns ``(cands, weights)``: per row the sorted candidate breakpoints of
    :func:`_policy_breakpoints`, padded to one width with duplicates of its
    own candidates, and the bound rule at the midpoint of every consecutive
    pair, shape ``(B, K - 1, n)``.  Padding only makes zero-width pieces,
    whose midpoint is a breakpoint; callers skip them.  Pieces are not
    coalesced.  Every non-empty piece and its weights are bitwise those of
    the scalar compiler, which stays the path for single profiles: the
    array overhead only pays off over many rows.
    """
    m = game.mediator
    piis = game.piis
    rows, n = locs.shape
    if isinstance(m, Dictator):
        subset = np.abs(locs - np.asarray(m.targets)) <= m.equality_tol
        # Disobeying players stand in as copies of an obeying site (or of 0.0
        # when nobody obeys), so their midpoints are candidates already.
        fill = np.where(subset, locs, 0.0).max(axis=1, keepdims=True)
        sites = np.sort(np.where(subset, locs, fill), axis=1)
    else:
        sites = np.sort(locs, axis=1)
    parts = [np.zeros((rows, 1)), np.ones((rows, 1)), locs, 0.5 * (sites[:, :-1] + sites[:, 1:])]
    for lo, hi in piis:
        below = sites <= lo
        above = sites >= hi
        # The last site <= lo and the first site >= hi (0.0 and 1.0 when absent).
        mid = 0.5 * (np.where(below, sites, 0.0).max(axis=1) + np.where(above, sites, 1.0).min(axis=1))
        ok = below.any(axis=1) & above.any(axis=1) & (lo < mid) & (mid < hi)
        parts.append(np.repeat([[lo, hi]], rows, axis=0))
        parts.append(np.where(ok, mid, lo)[:, None])
    cands = np.sort(np.concatenate(parts, axis=1), axis=1)

    t = 0.5 * (cands[:, :-1] + cands[:, 1:])
    dists = np.abs(locs[:, None, :] - t[:, :, None])
    if isinstance(m, Nime):
        return cands, _nearest_rows(dists, True)
    if isinstance(m, Dictator):
        weights = _nearest_rows(dists, subset[:, None, :])
        return cands, np.where(subset.any(axis=1)[:, None, None], weights, 1.0 / n)
    return cands, _limited_rows(locs, dists, t, piis, m.epsilon, m.half_split)


def _limited_rows(locs, dists, t, piis, epsilon, half_split):
    """:func:`_limited_rule` at user locations ``t`` of shape ``(B, P)``."""
    los = np.array([lo for lo, _ in piis])
    his = np.array([hi for _, hi in piis])
    k = np.searchsorted(los, t, side="left") - 1  # the last interval with lo < t
    k0 = np.maximum(k, 0)
    inside = ((k >= 0) & (t < his[k0]))[..., None]
    left = locs[:, None, :] <= los[k0][..., None]
    right = locs[:, None, :] >= his[k0][..., None]
    has_left = left.any(axis=-1, keepdims=True)
    has_right = right.any(axis=-1, keepdims=True)
    both = inside & has_left & has_right
    one = inside & (has_left ^ has_right)
    # One nearest scan serves every branch but the half split's right side.
    if half_split:
        subset = np.where(both, left, np.where(one, left | right, True))
    else:
        subset = np.where(inside & (has_left | has_right), left | right, True)
    weights = _nearest_rows(dists, subset)
    keep = 1.0 - epsilon
    u = epsilon / locs.shape[1]
    weights = np.where(one, keep * weights + u, weights)
    if half_split:
        weights = np.where(both, 0.5 * weights + 0.5 * _nearest_rows(dists, right), weights)
    return weights
