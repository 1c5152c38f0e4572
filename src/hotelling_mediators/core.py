"""Domain types shared by the whole package.

A game lives on the unit segment: each of the ``n`` players picks a location
in ``[0, 1]``, users are spread over the same segment according to a
continuous density, and a mediator decides which facility serves each user.
This module holds the primitive building blocks: locations and strategy
profiles, user distributions (uniform or piecewise-linear density) with exact
closed-form CDF / quantile / moment integrals, the mediator parameter records,
and the full game description.

Everything here is immutable and purely functional; values can be shared
freely across threads.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "Uniform",
    "PiecewiseLinearDensity",
    "UserDistribution",
    "UNIFORM",
    "distribution_from_json",
    "Nime",
    "Dictator",
    "Lime",
    "Glime",
    "Clime",
    "Mediator",
    "mediator_from_json",
    "mediator_to_json",
    "GameSpec",
    "validate_location",
    "validate_profile",
    "validate_direction_distribution",
    "optimal_locations",
    "quantile_locations",
]

# Tolerance used when validating that a density integrates to one and that a
# probability vector sums to one.
_NORMALIZATION_TOL = 1e-12

# Closed-form quantiles are accepted when the CDF round-trips this tightly;
# otherwise a bisection fallback refines the root.
_QUANTILE_TOL = 1e-12


def validate_location(t, name="t"):
    """Check that ``t`` is a real location inside the unit segment."""
    t = float(t)
    if math.isnan(t) or not 0.0 <= t <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {t!r}")
    return t


def validate_profile(profile, n=None):
    """Validate a strategy profile and return it as a tuple of floats.

    Player order is preserved; callers that need a canonical form sort
    explicitly.
    """
    locs = tuple(float(s) for s in profile)
    if n is not None and len(locs) != n:
        raise ValueError(f"profile has {len(locs)} locations, expected {n}")
    if len(locs) < 1:
        raise ValueError("profile must contain at least one location")
    for s in locs:
        if math.isnan(s) or not 0.0 <= s <= 1.0:
            raise ValueError(f"profile location {s!r} outside [0, 1]")
    return locs


def validate_direction_distribution(probs, n=None, tol=_NORMALIZATION_TOL):
    """Check a vector of direction probabilities (entries in [0,1], sum 1)."""
    p = tuple(float(x) for x in probs)
    if n is not None and len(p) != n:
        raise ValueError(f"direction distribution has length {len(p)}, expected {n}")
    for x in p:
        if not -tol <= x <= 1.0 + tol:
            raise ValueError(f"direction probability {x!r} outside [0, 1]")
    if abs(sum(p) - 1.0) > tol:
        raise ValueError(f"direction probabilities sum to {sum(p)!r}, expected 1")
    return p


# ---------------------------------------------------------------------------
# User distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    """Uniform user distribution on [0, 1]."""

    kind: ClassVar[str] = "uniform"

    def density(self, t):
        validate_location(t)
        return 1.0

    def cdf(self, t):
        return validate_location(t)

    def quantile(self, p):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {p!r}")
        return float(p)

    def mass(self, a, b):
        """User mass of the interval [a, b]."""
        return b - a

    def first_moment(self, a, b):
        """Integral of t over [a, b] against the density."""
        return 0.5 * (b * b - a * a)

    def abs_moment(self, c, a, b):
        """Integral of |c - t| over [a, b] against the density."""
        if b <= c:
            return c * (b - a) - 0.5 * (b * b - a * a)
        if a >= c:
            return 0.5 * (b * b - a * a) - c * (b - a)
        return 0.5 * ((c - a) * (c - a) + (b - c) * (b - c))

    def quantile_array(self, p):
        return np.asarray(p, dtype=float)

    def to_json(self):
        return {"kind": "uniform"}


@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Continuous piecewise-linear user density on [0, 1].

    The density interpolates ``values`` linearly between consecutive
    ``breakpoints``; the breakpoints must be strictly increasing and cover 0
    and 1, the values must be nonnegative, and the density must integrate to
    one.  CDF, quantile and first-moment integrals are evaluated in closed
    form per segment, so no quadrature error enters downstream computations.
    """

    breakpoints: tuple
    values: tuple
    # Per-breakpoint prefix integrals of g and of t*g, filled in __post_init__.
    _cum_mass: tuple = field(default=(), repr=False, compare=False)
    _cum_fm: tuple = field(default=(), repr=False, compare=False)

    kind: ClassVar[str] = "pwl"

    def __post_init__(self):
        xs = tuple(float(x) for x in self.breakpoints)
        gs = tuple(float(g) for g in self.values)
        if len(xs) != len(gs):
            raise ValueError("breakpoints and values must have equal length")
        if len(xs) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(math.isfinite(v) for v in xs + gs):
            raise ValueError("breakpoints and density values must be finite")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(g < 0.0 for g in gs):
            raise ValueError("density values must be nonnegative")
        cum_mass = [0.0]
        cum_fm = [0.0]
        for k in range(len(xs) - 1):
            h = xs[k + 1] - xs[k]
            cum_mass.append(cum_mass[-1] + 0.5 * h * (gs[k] + gs[k + 1]))
            cum_fm.append(cum_fm[-1] + self._segment_fm(k, xs[k + 1], xs, gs))
        if abs(cum_mass[-1] - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"density integrates to {cum_mass[-1]!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", gs)
        object.__setattr__(self, "_cum_mass", tuple(cum_mass))
        object.__setattr__(self, "_cum_fm", tuple(cum_fm))

    @staticmethod
    def _segment_fm(k, x, xs, gs):
        # Closed form of the integral of t*g(t) from xs[k] to x within segment k.
        x0 = xs[k]
        h = xs[k + 1] - x0
        m = (gs[k + 1] - gs[k]) / h
        c = gs[k] - m * x0
        return 0.5 * c * (x * x - x0 * x0) + m * (x ** 3 - x0 ** 3) / 3.0

    def _segment_index(self, t):
        # Segment k such that breakpoints[k] <= t, with t == 1 mapped to the last one.
        k = bisect_right(self.breakpoints, t) - 1
        return min(max(k, 0), len(self.breakpoints) - 2)

    def density(self, t):
        t = validate_location(t)
        k = self._segment_index(t)
        xs, gs = self.breakpoints, self.values
        w = (t - xs[k]) / (xs[k + 1] - xs[k])
        return gs[k] + w * (gs[k + 1] - gs[k])

    def cdf(self, t):
        t = validate_location(t)
        k = self._segment_index(t)
        xs, gs = self.breakpoints, self.values
        u = t - xs[k]
        m = (gs[k + 1] - gs[k]) / (xs[k + 1] - xs[k])
        return self._cum_mass[k] + u * (gs[k] + 0.5 * m * u)

    def quantile(self, p):
        """Smallest location q with cdf(q) = p.

        Per-segment quadratic inversion with a bisection fallback; flat (zero
        density) stretches resolve to their left endpoint.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {p!r}")
        p = float(p)
        cum = self._cum_mass
        xs, gs = self.breakpoints, self.values
        # First breakpoint whose cumulative mass reaches p.
        j = 0
        while j < len(cum) and cum[j] < p:
            j += 1
        if j == 0:
            return 0.0
        k = j - 1
        r = p - cum[k]
        h = xs[k + 1] - xs[k]
        m = (gs[k + 1] - gs[k]) / h
        q = xs[k] + self._invert_segment_mass(gs[k], m, r, h)
        if abs(self.cdf(q) - p) > _QUANTILE_TOL:
            q = self._bisect_quantile(p, xs[k], xs[k + 1])
        return min(max(q, 0.0), 1.0)

    @staticmethod
    def _invert_segment_mass(g0, m, r, h):
        # Smallest u in [0, h] with g0*u + m*u^2/2 == r, assuming one exists.
        if r <= 0.0:
            return 0.0
        disc = g0 * g0 + 2.0 * m * r
        denom = g0 + math.sqrt(max(disc, 0.0))
        if denom <= 0.0:
            return h
        return min(max(2.0 * r / denom, 0.0), h)

    def _bisect_quantile(self, p, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if self.cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return hi if self.cdf(hi) <= p else 0.5 * (lo + hi)

    def mass(self, a, b):
        return self.cdf(b) - self.cdf(a)

    def first_moment(self, a, b):
        return self._fm_prefix(b) - self._fm_prefix(a)

    def _fm_prefix(self, x):
        k = self._segment_index(x)
        return self._cum_fm[k] + self._segment_fm(k, x, self.breakpoints, self.values)

    def abs_moment(self, c, a, b):
        """Integral of |c - t| over [a, b] against the density."""
        if b <= c:
            return c * self.mass(a, b) - self.first_moment(a, b)
        if a >= c:
            return self.first_moment(a, b) - c * self.mass(a, b)
        left = c * self.mass(a, c) - self.first_moment(a, c)
        right = self.first_moment(c, b) - c * self.mass(c, b)
        return left + right

    def quantile_array(self, p):
        """Vectorized quantile, used by the Monte Carlo sampler."""
        p = np.asarray(p, dtype=float)
        cum = np.array(self._cum_mass)
        xs = np.array(self.breakpoints)
        gs = np.array(self.values)
        j = np.searchsorted(cum, p, side="left")
        k = np.clip(j - 1, 0, len(xs) - 2)
        r = np.maximum(p - cum[k], 0.0)
        h = xs[k + 1] - xs[k]
        m = (gs[k + 1] - gs[k]) / h
        disc = np.maximum(gs[k] * gs[k] + 2.0 * m * r, 0.0)
        denom = gs[k] + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(denom > 0.0, 2.0 * r / np.where(denom > 0.0, denom, 1.0), 0.0)
        q = xs[k] + np.minimum(np.maximum(u, 0.0), h)
        q[j == 0] = 0.0
        return np.clip(q, 0.0, 1.0)

    def to_json(self):
        return {
            "kind": "pwl",
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }


UserDistribution = Union[Uniform, PiecewiseLinearDensity]

UNIFORM = Uniform()


def distribution_from_json(obj):
    """Parse ``{"kind": "uniform"}`` or ``{"kind": "pwl", ...}``."""
    kind = obj.get("kind")
    if kind == "uniform":
        return UNIFORM
    if kind == "pwl":
        return PiecewiseLinearDensity(tuple(obj["breakpoints"]), tuple(obj["values"]))
    raise ValueError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Reference locations
# ---------------------------------------------------------------------------


def optimal_locations(n):
    """The n socially optimal locations ((2i-1)/(2n) for i = 1..n).

    Under nearest-facility assignment and the uniform distribution these
    minimize the users' total travel distance.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one player, got n={n}")
    return tuple((2 * i - 1) / (2 * n) for i in range(1, n + 1))


def quantile_locations(n, dist=UNIFORM):
    """Distribution-adapted counterpart of :func:`optimal_locations`.

    Returns the quantiles of ``dist`` at levels (2i-1)/(2n); for the uniform
    distribution this coincides with ``optimal_locations(n)`` exactly.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one player, got n={n}")
    return tuple(dist.quantile((2 * i - 1) / (2 * n)) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# Mediator parameter records
# ---------------------------------------------------------------------------

# Proofs about the limited-intervention rules need the random-redirect weight
# to be small; the strictest assumption used anywhere is epsilon < 1/3, so the
# library enforces that bound for every rule that uses epsilon.
_EPSILON_MAX = 1.0 / 3.0


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < _EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, 1/3), got {epsilon!r}")


@dataclass(frozen=True)
class Nime:
    """No-intervention mediator: nearest facility, ties split uniformly."""

    kind: ClassVar[str] = "nime"


@dataclass(frozen=True)
class Dictator:
    """Punishing mediator that dictates one target location per player.

    Players found at their target (within ``equality_tol``) share the users
    by the nearest-facility rule restricted to them; players that disobey get
    no users at all.  If everyone disobeys, users are assigned uniformly at
    random.  ``targets=None`` resolves to the socially optimal locations when
    a game is built.
    """

    targets: tuple | None = None
    equality_tol: float = 1e-9

    kind: ClassVar[str] = "dict"

    def __post_init__(self):
        if self.targets is not None:
            object.__setattr__(self, "targets", validate_profile(self.targets))
        if self.equality_tol < 0.0:
            raise ValueError("equality_tol must be nonnegative")


@dataclass(frozen=True)
class Lime:
    """Limited-intervention mediator for the uniform distribution.

    Users inside a protected interval between consecutive socially optimal
    locations are never served by a facility inside that interval; with
    probability ``epsilon`` they are redirected to a uniformly random player
    whenever the interval has outside facilities on one side only.
    """

    epsilon: float = 1e-3

    kind: ClassVar[str] = "lime"

    def __post_init__(self):
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class Glime:
    """Quantile-based generalization of :class:`Lime` to arbitrary densities.

    Protected intervals sit between consecutive odd quantiles of the user
    distribution, and a user with outside facilities on both sides is sent to
    the nearest facility on the left or on the right with probability 1/2
    each (instead of the overall nearest).
    """

    epsilon: float = 1e-3

    kind: ClassVar[str] = "glime"

    def __post_init__(self):
        _check_epsilon(self.epsilon)


@dataclass(frozen=True)
class Clime:
    """Limited-intervention mediator with two configurable-width intervals.

    Only the intervals (1/n - lam, 1/n + lam) and ((n-1)/n - lam,
    (n-1)/n + lam) are protected (they coincide for two players), so ``lam``
    tunes the trade-off between social cost in equilibrium and the worst-case
    damage of intervening.
    """

    lam: float
    epsilon: float = 1e-3

    kind: ClassVar[str] = "clime"

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not 0.0 < self.lam < 0.5:
            raise ValueError(f"lambda must lie in (0, 1/2), got {self.lam!r}")


Mediator = Union[Nime, Dictator, Lime, Glime, Clime]


def mediator_from_json(obj):
    """Parse the mediator wire format.

    Schema: ``{"kind": "nime"|"dict"|"lime"|"glime"|"clime", "epsilon": ...,
    "lambda": ..., "targets": [...], "equalityTol": ...}`` with parameters
    only where the kind uses them.
    """
    kind = obj.get("kind")
    if kind == "nime":
        return Nime()
    if kind == "dict":
        targets = obj.get("targets")
        return Dictator(
            targets=tuple(targets) if targets is not None else None,
            equality_tol=float(obj.get("equalityTol", 1e-9)),
        )
    if kind == "lime":
        return Lime(epsilon=float(obj.get("epsilon", 1e-3)))
    if kind == "glime":
        return Glime(epsilon=float(obj.get("epsilon", 1e-3)))
    if kind == "clime":
        if "lambda" not in obj:
            raise ValueError("clime mediator requires a lambda parameter")
        return Clime(lam=float(obj["lambda"]), epsilon=float(obj.get("epsilon", 1e-3)))
    raise ValueError(f"unknown mediator kind {kind!r}")


def mediator_to_json(mediator):
    if isinstance(mediator, Nime):
        return {"kind": "nime"}
    if isinstance(mediator, Dictator):
        out = {"kind": "dict", "equalityTol": mediator.equality_tol}
        if mediator.targets is not None:
            out["targets"] = list(mediator.targets)
        return out
    if isinstance(mediator, Lime):
        return {"kind": "lime", "epsilon": mediator.epsilon}
    if isinstance(mediator, Glime):
        return {"kind": "glime", "epsilon": mediator.epsilon}
    if isinstance(mediator, Clime):
        return {"kind": "clime", "lambda": mediator.lam, "epsilon": mediator.epsilon}
    raise TypeError(f"not a mediator: {mediator!r}")


# ---------------------------------------------------------------------------
# Game description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameSpec:
    """A game is the number of players, the mediator, and the user density."""

    n: int
    mediator: Mediator
    distribution: UserDistribution = UNIFORM

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"the number of players must be an integer, got n={self.n!r}")
        if self.n < 2:
            raise ValueError(f"need at least two players, got n={self.n}")
        m = self.mediator
        if isinstance(m, Dictator):
            if m.targets is None:
                object.__setattr__(
                    self, "mediator", replace(m, targets=optimal_locations(self.n))
                )
            elif len(m.targets) != self.n:
                raise ValueError(
                    f"dictator targets have length {len(m.targets)}, expected {self.n}"
                )
        if isinstance(m, Clime):
            if self.n == 2:
                if not m.lam <= 0.25:
                    raise ValueError(
                        f"two-player games need lambda <= 1/4, got {m.lam!r}"
                    )
            else:
                # Both protected intervals must stay inside (0, 1) and be disjoint.
                bound = min(1.0 / self.n, (self.n - 2) / (2.0 * self.n))
                if not m.lam < bound:
                    raise ValueError(
                        f"lambda must be below {bound} for n={self.n}, got {m.lam!r}"
                    )
