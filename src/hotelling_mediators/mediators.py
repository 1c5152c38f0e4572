"""Direction rules and their compilation into exact piecewise policies.

Five mediators are implemented.  Each one maps a strategy profile and a user
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
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    UNIFORM,
    Clime,
    Dictator,
    Glime,
    Lime,
    Nime,
    optimal_locations,
    quantile_locations,
    validate_location,
    validate_profile,
)

__all__ = [
    "nime_direct",
    "dict_direct",
    "lime_direct",
    "glime_direct",
    "clime_direct",
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


def nime_direct(profile, t):
    """No-intervention rule: probability 1/#ties on each nearest facility."""
    locs = validate_profile(profile)
    t = validate_location(t)
    return _nearest_weights(locs, t)


def dict_direct(profile, t, targets, equality_tol=1e-9):
    """Dictated-targets rule.

    Obeying players (|s_i - target_i| <= equality_tol) share the user by the
    nearest rule restricted to them; if no player obeys, the user is assigned
    uniformly at random.
    """
    locs = validate_profile(profile)
    t = validate_location(t)
    targets = validate_profile(targets, len(locs))
    rule, _ = _dictator_rule(locs, targets, equality_tol)
    return rule(t)


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


def lime_direct(profile, t, epsilon):
    locs = validate_profile(profile)
    t = validate_location(t)
    piis = _lime_piis(len(locs))
    return _limited_rule(_snap_to_endpoints(locs, piis), piis, epsilon, half_split=False)(t)


def glime_direct(profile, t, epsilon, dist=UNIFORM):
    locs = validate_profile(profile)
    t = validate_location(t)
    piis = _glime_piis(len(locs), dist)
    return _limited_rule(_snap_to_endpoints(locs, piis), piis, epsilon, half_split=True)(t)


def clime_direct(profile, t, lam, epsilon):
    locs = validate_profile(profile)
    t = validate_location(t)
    piis = _clime_piis(len(locs), lam)
    return _limited_rule(_snap_to_endpoints(locs, piis), piis, epsilon, half_split=False)(t)


def _lime_piis(n):
    opt = optimal_locations(n)
    return tuple((opt[i], opt[i + 1]) for i in range(n - 1))


def _glime_piis(n, dist):
    qs = quantile_locations(n, dist)
    return tuple((qs[i], qs[i + 1]) for i in range(n - 1))


def _clime_piis(n, lam):
    # Endpoints are rounded from exact rational arithmetic so that a facility
    # standing at a mathematically equal location (for example 3/10 against
    # 1/5 + 1/10) compares equal instead of drifting one ulp inside.
    width = Fraction(lam)

    def interval(i):
        center = Fraction(i, n)
        return (float(center - width), float(center + width))

    if n == 2:
        # The index set {1, n-1} collapses to a single centered interval.
        return (interval(1),)
    return (interval(1), interval(n - 1))


def pii_intervals(mediator, n, dist=UNIFORM):
    """Potentially intervened intervals of a mediator for an n-player game.

    Open, pairwise disjoint intervals inside (0, 1); empty for the rules that
    never override the nearest-facility assignment.  The quantile-based rule
    needs the user distribution to place its interval ends.
    """
    if n < 2:
        raise ValueError(f"need at least two players, got n={n}")
    if isinstance(mediator, Lime):
        return _lime_piis(n)
    if isinstance(mediator, Glime):
        return _glime_piis(n, dist)
    if isinstance(mediator, Clime):
        return _clime_piis(n, mediator.lam)
    if isinstance(mediator, (Nime, Dictator)):
        return ()
    raise TypeError(f"not a mediator: {mediator!r}")


@lru_cache(maxsize=512)
def _game_piis(game):
    return pii_intervals(game.mediator, game.n, game.distribution)


def _pointwise_rule(game, piis, locs):
    """Bind a game and a profile canonicalized against ``piis`` into
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
    return _limited_rule(locs, piis, m.epsilon, isinstance(m, Glime)), locs


def direct(game, profile, t):
    """Evaluate the game's mediator pointwise: user ``t`` -> distribution."""
    locs = validate_profile(profile, game.n)
    t = validate_location(t)
    piis = _game_piis(game)
    rule, _ = _pointwise_rule(game, piis, _snap_to_endpoints(locs, piis))
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
    piis = _game_piis(game)
    locs = _snap_to_endpoints(locs, piis)
    rule, sites = _pointwise_rule(game, piis, locs)
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
