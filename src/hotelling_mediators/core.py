"""Domain types shared by the whole package.

A game lives on the unit segment: each of the ``n`` players picks a location
in ``[0, 1]``, users are spread over the same segment according to a
continuous density, and a mediator decides which facility serves each user.
This module holds the primitive building blocks: locations and strategy
profiles, user distributions (uniform or piecewise-linear density) with exact
closed-form CDF / quantile / moment integrals, the mediator records, and the
full game description.

Each mediator record is the one place that knows its kind: its wire format,
its checks against the player count, its protected intervals, its analytic
intervention-cost bounds, its adversarial fixture and its characterized
equilibria.  A private ``kind -> class`` registry resolves kind strings for
the wire format, the fixtures and the command line.  The direction rules and
their compilers live in :mod:`hotelling_mediators.mediators`.

Everything here is immutable and purely functional; values can be shared
freely across threads.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
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

    def abs_moment_array(self, c, a, b):
        """:meth:`abs_moment` elementwise over broadcast arrays, bitwise equal."""
        below = c * (b - a) - 0.5 * (b * b - a * a)
        above = 0.5 * (b * b - a * a) - c * (b - a)
        split = 0.5 * ((c - a) * (c - a) + (b - c) * (b - c))
        return np.where(b <= c, below, np.where(a >= c, above, split))

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
        # Scalars or numpy arrays alike; the cube is spelled as products
        # because numpy's ``x ** 3`` and Python's ``pow`` can differ by an ulp.
        x0 = xs[k]
        h = xs[k + 1] - x0
        m = (gs[k + 1] - gs[k]) / h
        c = gs[k] - m * x0
        return 0.5 * c * (x * x - x0 * x0) + m * (x * x * x - x0 * x0 * x0) / 3.0

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

    def _prefixes_array(self, t):
        # Arrays of cdf(t) and of the first-moment prefix at t, by the
        # scalar formulas of cdf and _fm_prefix.
        xs = np.array(self.breakpoints)
        gs = np.array(self.values)
        k = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
        u = t - xs[k]
        m = (gs[k + 1] - gs[k]) / (xs[k + 1] - xs[k])
        cdf = np.array(self._cum_mass)[k] + u * (gs[k] + 0.5 * m * u)
        fm = np.array(self._cum_fm)[k] + self._segment_fm(k, t, xs, gs)
        return cdf, fm

    def abs_moment_array(self, c, a, b):
        """:meth:`abs_moment` elementwise over broadcast arrays, bitwise equal."""
        c, a, b = np.broadcast_arrays(c, a, b)
        cdf_a, fm_a = self._prefixes_array(a)
        cdf_b, fm_b = self._prefixes_array(b)
        cdf_c, fm_c = self._prefixes_array(c)
        below = c * (cdf_b - cdf_a) - (fm_b - fm_a)
        above = (fm_b - fm_a) - c * (cdf_b - cdf_a)
        left = c * (cdf_c - cdf_a) - (fm_c - fm_a)
        right = (fm_b - fm_c) - c * (cdf_b - cdf_c)
        return np.where(b <= c, below, np.where(a >= c, above, left + right))

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


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_numbers(obj, key):
    values = obj.get(key)
    if not isinstance(values, list) or not all(_is_number(v) for v in values):
        raise ValueError(f"{obj['kind']} needs {key!r} as a list of numbers")
    return tuple(values)


def distribution_from_json(obj):
    """Parse ``{"kind": "uniform"}`` or ``{"kind": "pwl", "breakpoints":
    [...], "values": [...]}``; any other shape raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a distribution must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "uniform":
        return UNIFORM
    if kind == "pwl":
        return PiecewiseLinearDensity(_json_numbers(obj, "breakpoints"), _json_numbers(obj, "values"))
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
# Mediator records
# ---------------------------------------------------------------------------

# Proofs about the limited-intervention rules need the random-redirect weight
# to be small; the strictest assumption used anywhere is epsilon < 1/3, so the
# library enforces that bound for every rule that uses epsilon.
_EPSILON_MAX = 1.0 / 3.0


def _check_epsilon(epsilon):
    if not 0.0 < epsilon < _EPSILON_MAX:
        raise ValueError(f"epsilon must lie in (0, 1/3), got {epsilon!r}")


def _json_number(obj, key, default):
    value = obj.get(key, default)
    if not _is_number(value):
        raise ValueError(f"the {obj['kind']} mediator needs {key!r} as a number, got {value!r}")
    return float(value)


def _check_offset_fixture(kind, n, delta):
    if n < 3:
        raise ValueError(f"the {kind} fixture needs n >= 3")
    if not 0.0 < delta < 1.0 / (2 * n):
        raise ValueError(f"delta must lie in (0, 1/(2n)), got {delta!r}")


def _players(n):
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least two players, got n={n}")
    return n


def _corners(a, b):
    return [(a, a), (a, b), (b, a), (b, b)]


class Mediator:
    """Base of the mediator records (see the module docstring).

    The defaults describe a rule that never overrides the nearest-facility
    assignment and about which nothing is proven; each record overrides what
    differs for its kind.
    """

    kind: ClassVar[str]

    def bind(self, n):
        """This record as used in an n-player game; ValueError if it cannot be."""
        return self

    def intervals(self, n, dist):
        """Protected intervals: open, disjoint, increasing, inside (0, 1)."""
        return ()

    def to_json(self):
        return {"kind": self.kind}

    @classmethod
    def from_json(cls, obj):
        return cls()

    def ic_bounds(self, n):
        """Proven (lower, upper) intervention-cost bounds under the uniform
        density; None where no bound is proven."""
        return (None, None)

    @classmethod
    def fixture(cls, n, delta):
        """A profile known to drive the intervention gap close to its
        supremum; ValueError where the construction is not defined."""
        raise ValueError(f"no adversarial fixture for mediator kind {cls.kind!r}")

    def known_pne(self, n, dist):
        """The characterized equilibrium profiles, or None."""
        return None


@dataclass(frozen=True)
class Nime(Mediator):
    """No-intervention mediator: nearest facility, ties split uniformly."""

    kind: ClassVar[str] = "nime"

    def ic_bounds(self, n):
        return (0.0, 0.0)

    def known_pne(self, n, dist):
        return [(0.5, 0.5)] if n == 2 and dist == UNIFORM else None


@dataclass(frozen=True)
class Dictator(Mediator):
    """Punishing mediator that dictates one target location per player.

    Players found at their target (within ``equality_tol``) share the users
    by the nearest-facility rule restricted to them; players that disobey get
    no users at all.  If everyone disobeys, users are assigned uniformly at
    random.  ``targets=None`` resolves to the socially optimal locations when
    a game is built.  The dictated targets are the equilibrium under any
    density.
    """

    targets: tuple | None = None
    equality_tol: float = 1e-9

    kind: ClassVar[str] = "dict"

    def __post_init__(self):
        if self.targets is not None:
            object.__setattr__(self, "targets", validate_profile(self.targets))
        if not self.equality_tol >= 0.0:
            raise ValueError(f"equality_tol must be a nonnegative number, got {self.equality_tol!r}")

    def bind(self, n):
        if self.targets is None:
            return replace(self, targets=optimal_locations(n))
        if len(self.targets) != n:
            raise ValueError(f"dictator targets have length {len(self.targets)}, expected {n}")
        return self

    def to_json(self):
        out = {"kind": self.kind, "equalityTol": self.equality_tol}
        if self.targets is not None:
            out["targets"] = list(self.targets)
        return out

    @classmethod
    def from_json(cls, obj):
        return cls(
            targets=_json_numbers(obj, "targets") if obj.get("targets") is not None else None,
            equality_tol=_json_number(obj, "equalityTol", 1e-9),
        )

    def ic_bounds(self, n):
        return (0.5 - 3.0 / (4 * n) + 1.0 / (4 * n * n), None)

    @classmethod
    def fixture(cls, n, delta):
        _check_offset_fixture(cls.kind, n, delta)
        # First player obeys her target; everyone else stands just off target.
        return (1.0 / (2 * n),) + tuple((2 * i - 1) / (2 * n) + delta for i in range(2, n + 1))

    def known_pne(self, n, dist):
        return [tuple(self.targets)]


class _Limited(Mediator):
    """Base of the limited-intervention records, which all carry ``epsilon``."""

    # Users inside an interval with outside facilities on both sides go 50/50
    # to the nearest on the left and on the right, instead of to the nearest
    # of both.
    half_split: ClassVar[bool] = False

    def __post_init__(self):
        _check_epsilon(self.epsilon)

    def to_json(self):
        return {"kind": self.kind, "epsilon": self.epsilon}

    @classmethod
    def from_json(cls, obj):
        return cls(epsilon=_json_number(obj, "epsilon", 1e-3))


@dataclass(frozen=True)
class Lime(_Limited):
    """Limited-intervention mediator for the uniform distribution.

    Users inside a protected interval between consecutive socially optimal
    locations are never served by a facility inside that interval; with
    probability ``epsilon`` they are redirected to a uniformly random player
    whenever the interval has outside facilities on one side only.  Its
    equilibria are characterized for the uniform density only.
    """

    epsilon: float = 1e-3

    kind: ClassVar[str] = "lime"

    def intervals(self, n, dist):
        opt = optimal_locations(n)
        return tuple(zip(opt, opt[1:]))

    def ic_bounds(self, n):
        if n == 2:
            return (None, None)
        return ((1.0 - self.epsilon / 2) * (2 * n - 4.0) / (n * n), (2 * n - 3.5) / (n * n))

    @classmethod
    def fixture(cls, n, delta):
        _check_offset_fixture(cls.kind, n, delta)
        k = math.ceil(n / 2)
        lo = 1.0 / (2 * n) + delta
        hi = (2 * n - 1.0) / (2 * n) - delta
        return (lo,) * k + (hi,) * (n - k)

    def known_pne(self, n, dist):
        if dist != UNIFORM:
            return None
        return [optimal_locations(n)] if n >= 3 else _corners(0.25, 0.75)


@dataclass(frozen=True)
class Glime(_Limited):
    """Quantile-based generalization of :class:`Lime` to arbitrary densities.

    Protected intervals sit between consecutive odd quantiles of the user
    distribution, and a user with outside facilities on both sides is sent to
    the nearest facility on the left or on the right with probability 1/2
    each (instead of the overall nearest).  For n >= 3 the odd quantiles are
    the equilibrium under any density.  Its fixture needs no offset and
    ignores ``delta``.
    """

    epsilon: float = 1e-3

    kind: ClassVar[str] = "glime"
    half_split: ClassVar[bool] = True

    def intervals(self, n, dist):
        qs = quantile_locations(n, dist)
        return tuple(zip(qs, qs[1:]))

    def ic_bounds(self, n):
        return (
            0.25 - 1.0 / (2 * n) + 1.0 / (4 * n * n),
            0.5 - 3.0 / (4 * n) + 1.0 / (4 * n * n),
        )

    @classmethod
    def fixture(cls, n, delta):
        k = n // 2
        return (1.0 / (2 * n),) * k + ((2 * n - 1.0) / (2 * n),) * (n - k)

    def known_pne(self, n, dist):
        return [quantile_locations(n, dist)] if n >= 3 else None


@dataclass(frozen=True)
class Clime(_Limited):
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
        super().__post_init__()
        if not 0.0 < self.lam < 0.5:
            raise ValueError(f"lambda must lie in (0, 1/2), got {self.lam!r}")

    def bind(self, n):
        if n == 2:
            if not self.lam <= 0.25:
                raise ValueError(f"two-player games need lambda <= 1/4, got {self.lam!r}")
            return self
        # Both protected intervals must stay inside (0, 1) and be disjoint.
        bound = min(1.0 / n, (n - 2) / (2.0 * n))
        if not self.lam < bound:
            raise ValueError(f"lambda must be below {bound} for n={n}, got {self.lam!r}")
        return self

    def intervals(self, n, dist):
        # Endpoints are rounded from exact rational arithmetic so that a
        # facility standing at a mathematically equal location (for example
        # 3/10 against 1/5 + 1/10) compares equal instead of drifting one ulp
        # inside.  For two players the index set {1, n-1} collapses to a
        # single centered interval.
        width = Fraction(self.lam)
        centers = {Fraction(1, n), Fraction(n - 1, n)}
        return tuple((float(c - width), float(c + width)) for c in sorted(centers))

    def to_json(self):
        return {"kind": self.kind, "lambda": self.lam, "epsilon": self.epsilon}

    @classmethod
    def from_json(cls, obj):
        return cls(lam=_json_number(obj, "lambda", None), epsilon=_json_number(obj, "epsilon", 1e-3))

    def ic_bounds(self, n):
        if n == 2:
            value = self.lam - self.lam * self.lam
            return (value, value)
        return (None, 4.0 * self.lam)

    @classmethod
    def fixture(cls, n, delta):
        if n != 2:
            raise ValueError("the clime fixture is defined for n=2 only")
        return (0.0, 0.5)

    def known_pne(self, n, dist):
        return _corners(0.5 - self.lam, 0.5 + self.lam) if n == 2 and dist == UNIFORM else None


# The registry of mediator kinds: the wire format, the fixtures and the
# command line's --mediator choices all resolve a kind string here.
_MEDIATORS = {cls.kind: cls for cls in (Nime, Dictator, Lime, Glime, Clime)}


def mediator_from_json(obj):
    """Parse the mediator wire format.

    Schema: ``{"kind": "nime"|"dict"|"lime"|"glime"|"clime", "epsilon": ...,
    "lambda": ..., "targets": [...], "equalityTol": ...}`` with parameters
    only where the kind uses them.  Any other shape raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a mediator must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    cls = _MEDIATORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown mediator kind {kind!r}")
    return cls.from_json(obj)


def mediator_to_json(mediator):
    return mediator.to_json()


# ---------------------------------------------------------------------------
# Game description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameSpec:
    """A game is the number of players, the mediator, and the user density.

    The mediator is bound to the player count at construction, and its
    protected intervals for this game are worked out once into ``piis``.
    """

    n: int
    mediator: Mediator
    distribution: UserDistribution = UNIFORM
    piis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise ValueError(f"the number of players must be an integer, got n={self.n!r}")
        if self.n < 2:
            raise ValueError(f"need at least two players, got n={self.n}")
        if not isinstance(self.mediator, Mediator):
            raise TypeError(f"not a mediator: {self.mediator!r}")
        object.__setattr__(self, "mediator", self.mediator.bind(self.n))
        object.__setattr__(self, "piis", self.mediator.intervals(self.n, self.distribution))
