"""Direction rules and their compilation into exact piecewise policies.

Five mediators are implemented.  Their records in :mod:`hotelling_mediators.core`
own everything particular to a kind (parameters, wire format, protected
intervals, which a game works out once into ``game.piis``, eligible players,
bounds, fixtures and equilibria); this module holds the one direction rule
and its two compilers, which never ask for a record's kind.  The rule maps a
strategy profile and a user location to a distribution over player indices:
the user goes to the nearest *eligible* player, splitting ties uniformly,
and to a uniformly random player when nobody is eligible; inside a protected
interval she is served by the nearest eligible facility *outside* it.  The
kinds differ only in their eligible players, their intervals, ``epsilon``
and the ``half_split`` flag:

* ``nime`` — every player is eligible and no interval is protected: the
  nearest facility.
* ``dict`` — only the players standing at their dictated target are
  eligible; disobeying players get nothing, and if nobody obeys the user goes
  to a uniformly random player.
* ``lime`` — protected intervals sit between consecutive socially optimal
  locations; with probability ``epsilon`` a user inside one is sent to a
  random player when only one side of the interval is occupied.
* ``glime`` — same scheme with interval ends at the odd quantiles of the user
  distribution, and a 50/50 split between the nearest-left and nearest-right
  outside facility when both sides are occupied.
* ``clime`` — same scheme as ``lime`` but with just two protected intervals
  of half-width ``lam`` centered at 1/n and (n-1)/n (a single interval when
  n = 2).

For fixed profile and mediator the rule is piecewise constant in the user
location, so each (mediator, profile) pair compiles into a
:class:`PiecewisePolicy`: an exact list of breakpoints with one direction
distribution per open piece.  All payoff and social-cost integrals downstream
run over these pieces in closed form.

Compilation is linear-size.  The rule is bound to the profile first (see
:func:`_bind_rule`): the eligible players are resolved and sorted by
location once per profile, so a user inside an interval finds its outside
facilities by bisection.  The candidate breakpoints are the rule's live
switch points, at most n + 1 + 3 per interval: 0 and 1, the interval
endpoints, the midpoints of adjacent distinct eligible sites not inside an
interval with an occupied side, and per interval one midpoint across it
but under a half split (see :func:`_policy_breakpoints`).  The bound rule
scans O(n) facilities once per piece, so a profile compiles in O(n^2) time.

The kinks of one player's deviation line, between which the exact
equilibrium check prices it, are the game's fixed geometry, which the game
builds once (``game.kink_families``), restricted to that line, plus the
record's ``switch_points`` (see :func:`_line_kinks`).

:func:`_compiled_rows` is the same compiler over many profiles at once, used
to price random profiles, grid waves and deviation lines in blocks.  It
holds them player-major: the profiles as an ``(n, B)`` array and the rule's
weights as ``(n, B, pieces)``, so every reduction over the players (the
nearest distance, the tie count, whether a side is occupied) runs over the
leading axis, elementwise across profiles and pieces, at any n, and every
protected interval's candidates are found in one pass over all intervals.
It builds the scalar compiler's live candidate set, so every non-empty
piece it yields is bitwise the scalar compiler's.  No path here rebuilds
the game's endpoints, snap bands or kink families per call: the snap and
the scalar rule read ``game.ends``, the row compiler ``game.pii_arrays``
and ``game.fixed_breakpoints``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import _PII_FACILITY_SNAP, validate_location, validate_profile

__all__ = [
    "direct",
    "PiecewisePolicy",
    "compile_policy",
]


def _nearest_weights(locs, t, subset):
    """Nearest-facility weights over the players in ``subset``.

    Ties are split uniformly; distances compare exactly, so only players at
    bit-identical distance share a tie.
    """
    n = len(locs)
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


def _snap_to_endpoints(game, locs):
    """Canonicalize facilities onto the game's interval endpoints they
    almost touch.

    A facility moves to the nearer of the last endpoint below it and the
    first at or above it in ``game.ends``, ties to the lower, when that one
    lies within ``_PII_FACILITY_SNAP``; a facility on an endpoint stays, so
    snapping a snapped profile changes nothing.
    """
    if not game.piis:
        return locs
    ends = game.ends
    out = None
    for i, s in enumerate(locs):
        k = bisect_left(ends, s)
        e = ends[k - 1] if s - ends[k - 1] <= ends[k] - s else ends[k]
        if e != s and abs(s - e) <= _PII_FACILITY_SNAP:
            if out is None:
                out = list(locs)
            out[i] = e
    return locs if out is None else tuple(out)


def _bind_rule(game, locs):
    """Bind the game's rule to a profile canonicalized against ``game.piis``:
    ``(rule, sites)``, with ``sites`` the eligible players' locations.

    ``rule`` maps a user location to a distribution over players.  Users go
    to the nearest eligible player, ties split, or uniformly at random when
    nobody is eligible.  Strictly inside a protected interval they go to the
    nearest eligible facility outside it (with ``half_split``, 50/50 to the
    nearest on the left and on the right); with one side occupied an
    ``epsilon`` share is redirected uniformly at random, and with neither
    the rule stays the plain nearest.  The eligible players are sorted once
    per profile, so a user inside an interval finds its outside facilities
    with two bisections.
    """
    m = game.mediator
    players = m.eligible(locs)
    sites = [locs[i] for i in players]
    if not sites:
        uniform = (1.0 / len(locs),) * len(locs)
        return (lambda t: uniform), sites
    if not game.piis:
        return (lambda t: _nearest_weights(locs, t, players)), sites
    order = sorted(players, key=locs.__getitem__)
    ranked = [locs[i] for i in order]
    ends = game.ends
    keep = 1.0 - m.epsilon
    u = m.epsilon / len(locs)

    def rule(t):
        k = bisect_left(ends, t)  # inside an interval iff ends[k] is an upper end (k even) above t
        if k % 2 or t == ends[k]:
            return _nearest_weights(locs, t, players)
        lo, hi = ends[k - 1], ends[k]
        left = order[: bisect_right(ranked, lo)]
        right = order[bisect_left(ranked, hi) :]
        if left and right:
            if m.half_split:
                wl = _nearest_weights(locs, t, left)
                wr = _nearest_weights(locs, t, right)
                return tuple(0.5 * a + 0.5 * b for a, b in zip(wl, wr))
            return _nearest_weights(locs, t, left + right)
        if left or right:
            return tuple(keep * x + u for x in _nearest_weights(locs, t, left or right))
        return _nearest_weights(locs, t, players)

    return rule, sites


def direct(game, profile, t):
    """Evaluate the game's mediator pointwise: user ``t`` -> distribution."""
    locs = validate_profile(profile, game.n)
    t = validate_location(t)
    rule, _ = _bind_rule(game, _snap_to_endpoints(game, locs))
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


def _policy_breakpoints(sites, piis, half_split):
    """Live candidates: locations where the bound rule may change, O(n).

    ``sites`` are the sorted distinct locations the rule chooses among.  The
    candidates are 0 and 1, every protected-interval endpoint, the midpoint
    of every pair of adjacent sites but those strictly inside an interval
    with an occupied side, and without ``half_split`` per interval the
    midpoint between the last site <= lo and the first site >= hi when it
    falls inside the interval.

    The set is complete.  Inside an interval the branch is fixed for the
    profile, so the rule can only change where the nearest facility of the
    scanned subset does.  Outside every interval, and inside one with no
    outside facility, the whole site set is scanned, and its nearest site
    changes only at an adjacent-site midpoint.  Inside an interval with an
    occupied side the rule reads only the outside facilities, so no site
    midpoint there can switch it.  With both sides occupied, the nearest of
    the outside facilities is the last site <= lo or the first site >= hi,
    so it changes only at their midpoint.  The one-sided and half-split
    branches pick the nearest facility of each side they read, which cannot
    change while the user stays strictly inside, so a half split has no
    cross midpoint.  The interval endpoints bound those branches.  In floats
    a nearest-facility switch can land one ulp past its midpoint, which
    moves a piece boundary, and so an integral, by at most that ulp.
    """
    points = {0.0, 1.0}
    mids = [0.5 * (a + b) for a, b in zip(sites, sites[1:])]
    settled = 0  # mids[:settled] are placed or dropped
    for lo, hi in piis:
        points.update((lo, hi))
        k = bisect_right(sites, lo)
        j = bisect_left(sites, hi)
        if k or j < len(sites):
            points.update(mids[settled : bisect_right(mids, lo)])
            settled = bisect_left(mids, hi)
            if k and j < len(sites) and not half_split:
                mid = 0.5 * (sites[k - 1] + sites[j])
                if lo < mid < hi:
                    points.add(mid)
    points.update(mids[settled:])
    return sorted(points)


def _line_kinks(game, locs, i):
    """``(kinks, spans)`` of player ``i``'s deviation line, the opponents
    fixed at ``locs``: the sorted kinks, and the pairs of consecutive kinks
    to price, all but those inside an endpoint's snap band, where every
    deviation snaps onto the endpoint, a kink.

    A kink is where the compiled policy can change shape as the player moves
    to y: the game's fixed ``kink_families`` restricted to the line, that
    is its levels (0, 1, density breakpoints, interval endpoints and their
    snap-band edges) and the reflections 2c - z of the opponents z through
    its centres c, where a moving candidate (y + z) / 2 of
    :func:`_policy_breakpoints` crosses an endpoint or a breakpoint; the
    opponents; and the record's switch points, per call, as they may read
    the opponents.  The set is clipped to [0, 1].  Between consecutive
    kinks the payoff is a polynomial in y.
    """
    locs = _snap_to_endpoints(game, locs)
    opponents = [z for j, z in enumerate(locs) if j != i]
    levels, centres, lows, highs = game.kink_families
    kinks = {*levels, *opponents, *game.mediator.switch_points(locs, i)}
    kinks.update([2.0 * c - z for c in centres for z in opponents])
    kinks = sorted([k for k in kinks if 0.0 <= k <= 1.0])
    # The band with the last low at or below a reaches furthest.
    return kinks, [(a, b) for a, b in zip(kinks, kinks[1:]) if b > highs[bisect_right(lows, a) - 1]]


# The last compile, as ``(game, input locations, compile)``; see
# :func:`_compiled_pieces`.  One entry in total, read and replaced as one
# tuple, so a caller in another thread never pairs one key with another
# compile's result.
_last_compile = (None, None, None)


def _same_floats(a, b):
    """Whether two location tuples hold the same floats bit for bit: equal
    values of the same type, with the same sign on every zero, since
    ``-0.0 == 0.0``."""
    return a == b and all(
        type(x) is type(y) and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(a, b)
    )


def _compile(game, locs):
    """``(locations, breakpoints, pieces, rule, memo, costs)``, compiled
    afresh from the location tuple ``locs``: the canonicalized locations,
    and the (lo, hi, distribution) pieces over (0, 1).

    Facilities are snapped onto interval endpoints once, here, and the rule
    is bound to the snapped profile once.  Adjacent pieces with identical
    distributions are coalesced; the returned breakpoint tuple still holds
    every candidate switch point, where the rule may deviate pointwise
    (ties, interval endpoints).  ``memo`` is a fresh dict for the density
    prefixes of the points this compile is priced at (see the density's
    ``_integrals``), so every integration over one compile computes a
    point's prefixes once; it lives and dies with the compile.  ``costs``
    is the slot ``[social cost, the no-intervention twin's social cost]``,
    both None until an integrator first prices them (see
    :func:`hotelling_mediators.metrics._kept_costs`), so a kept compile
    prices each side once.  The rest is made of tuples and a rule that keeps
    no state, a memo entry depends only on its point and the game's density,
    and a cost only on the compile, so callers may share the compile.
    """
    snapped = _snap_to_endpoints(game, locs)
    rule, sites = _bind_rule(game, snapped)
    bps = _policy_breakpoints(sorted(set(sites)), game.piis, game.mediator.half_split)
    pieces = []
    for lo, hi in zip(bps, bps[1:]):
        d = rule(0.5 * (lo + hi))
        if pieces and pieces[-1][2] == d:
            pieces[-1] = (pieces[-1][0], hi, d)
        else:
            pieces.append((lo, hi, d))
    return (snapped, tuple(bps), tuple(pieces), rule, {}, [None, None])


def _compiled_pieces(game, locs):
    """:func:`_compile`, keeping the last compile.

    A call with the same ``game`` object and the same input floats bit for
    bit (see :func:`_same_floats`) returns the kept compile again, so
    payoff, social cost and gap on one profile compile it once and share
    its prefix memo and its costs.  Any other call compiles and replaces
    it.
    """
    global _last_compile
    last_game, last_locs, last = _last_compile
    if game is last_game and _same_floats(locs, last_locs):
        return last
    locs = tuple(locs)
    result = _compile(game, locs)
    _last_compile = (game, locs, result)
    return result


def compile_policy(game, profile, include_point_dists=True):
    """Compile the game's mediator and a profile into an exact policy."""
    locs = validate_profile(profile, game.n)
    _, bps, pieces, rule, _, _ = _compiled_pieces(game, locs)
    point_dists = {b: rule(b) for b in bps} if include_point_dists else {}
    return PiecewisePolicy(
        breakpoints=tuple(p[0] for p in pieces) + (1.0,),
        piece_dists=tuple(d for _, _, d in pieces),
        point_dists=point_dists,
    )


# ---------------------------------------------------------------------------
# Row compilation: many profiles at once
# ---------------------------------------------------------------------------


def _snap_rows(game, locs):
    """:func:`_snap_to_endpoints` against ``game.piis`` applied elementwise
    to an array of locations, bitwise, as a new C-contiguous array of its
    shape; the row kernel passes its profiles player-major, ``(n, B)``."""
    out = np.array(locs, dtype=float, order="C")
    if not game.piis:
        return out
    ends = game.pii_arrays[0]
    k = np.searchsorted(ends, out, side="left")
    e = np.where(out - ends[k - 1] <= ends[k] - out, ends[k - 1], ends[k])
    return np.where(np.abs(out - e) <= _PII_FACILITY_SNAP, e, out)


def _nearest_rows(dists, subset):
    """:func:`_nearest_weights` over the leading (player) axis, restricted
    to ``subset``."""
    masked = np.where(subset, dists, np.inf)
    tie = (masked == masked.min(axis=0)) & subset
    return np.where(tie, 1.0 / np.maximum(tie.sum(axis=0), 1), 0.0)


def _compiled_rows(game, locs):
    """Array form of :func:`_compiled_pieces` over canonicalized profiles
    held player-major, ``locs`` of shape ``(n, B)``: one column per profile.

    Returns ``(cands, weights)``: per profile the sorted live candidates
    of :func:`_policy_breakpoints`, shape ``(B, K)``, and the bound rule at
    the midpoint of every consecutive pair, shape ``(n, B, K - 1)``.  The
    players lead every array, so each reduction over them is a reduction
    over the leading axis, elementwise across profiles and pieces, at any
    n; every interval's candidates are found in the same pass.  Dead
    candidates, equal sites' midpoints among them, sort last as copies of
    1.0, and K is the widest row's live count.  That padding and coinciding
    candidates make zero-width pieces only; callers skip them.  Pieces are
    not coalesced.  Every non-empty piece and its weights are bitwise those
    of the scalar compiler, which stays the path for single profiles: the
    array overhead only pays off over many rows.
    """
    eligible = game.mediator.eligible_rows(locs)
    if eligible is None:
        sites = np.sort(locs, axis=0)
    else:
        # Skipped players stand in as copies of an eligible site (or of 0.0
        # when nobody is eligible), so their midpoints are dead: equal sites.
        fill = np.where(eligible, locs, 0.0).max(axis=0)
        sites = np.sort(np.where(eligible, locs, fill), axis=0)
    mids = 0.5 * (sites[:-1] + sites[1:])
    live = sites[:-1] != sites[1:]
    if game.piis:
        los, his = game.pii_arrays[1][..., None]
        below = sites[:, None] <= los
        above = sites[:, None] >= his
        has_below, has_above = below.any(axis=0), above.any(axis=0)
        # A site midpoint strictly inside an interval with an occupied side.
        live &= ~((mids[:, None] > los) & (mids[:, None] < his) & (has_below | has_above)).any(axis=1)
        if not game.mediator.half_split:
            # Per interval, the last site <= lo and the first site >= hi
            # (0.0 and 1.0 when absent), shape (intervals, B).
            last_below = np.where(below, sites[:, None], 0.0).max(axis=0)
            mid = 0.5 * (last_below + np.where(above, sites[:, None], 1.0).min(axis=0))
            ok = has_below & has_above & (los < mid) & (mid < his)
            mids, live = np.concatenate([mids, mid]), np.concatenate([live, ok])
    # Dead candidates sort last as copies of 1.0; keep the widest row's.
    fixed = game.fixed_breakpoints
    cands = np.concatenate([np.broadcast_to(fixed, (locs.shape[1], len(fixed))), np.where(live, mids, 1.0).T], axis=1)
    cands.sort(axis=1)
    cands = cands[:, : len(fixed) + live.sum(axis=0).max(initial=0)]
    return cands, _rule_rows(game, locs, eligible, 0.5 * (cands[:, :-1] + cands[:, 1:]))


def _rule_rows(game, locs, eligible, t):
    """:func:`_bind_rule` at user locations ``t`` of shape ``(B, P)``, for
    the ``(n, B)`` profiles ``locs`` and the record's mask ``eligible`` of
    the same shape (None when every player is): weights ``(n, B, P)``."""
    m = game.mediator
    piis = game.piis
    n = len(locs)
    locs = locs[..., None]
    dists = np.abs(locs - t)
    every = True if eligible is None else eligible[..., None]
    if not piis:
        weights = _nearest_rows(dists, every)
    else:
        los, his = game.pii_arrays[1]
        k = np.searchsorted(los, t, side="left") - 1  # the last interval with lo < t
        k0 = np.maximum(k, 0)
        inside = (k >= 0) & (t < his[k0])
        left = locs <= los[k0]
        right = locs >= his[k0]
        if eligible is not None:
            left &= every
            right &= every
        has_left = left.any(axis=0)
        has_right = right.any(axis=0)
        both = inside & has_left & has_right
        one = inside & (has_left ^ has_right)
        # One nearest scan serves every branch but the half split's right side.
        if m.half_split:
            subset = np.where(both, left, np.where(one, left | right, every))
        else:
            subset = np.where(inside & (has_left | has_right), left | right, every)
        weights = _nearest_rows(dists, subset)
        weights = np.where(one, (1.0 - m.epsilon) * weights + m.epsilon / n, weights)
        if m.half_split:
            weights = np.where(both, 0.5 * weights + 0.5 * _nearest_rows(dists, right), weights)
    if eligible is not None:
        weights = np.where(eligible.any(axis=0)[:, None], weights, 1.0 / n)
    return weights
