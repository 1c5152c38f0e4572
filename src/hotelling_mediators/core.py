"""Domain types shared by the whole package.

A game lives on the unit segment: each of the ``n`` players picks a location
in ``[0, 1]``, users are spread over the same segment according to a
continuous density, and a mediator decides which facility serves each user.
This module holds the primitive building blocks: locations and strategy
profiles, user distributions (uniform or piecewise-linear density) with exact
closed-form CDF / quantile / moment integrals, the mediator records, the
full game description, and the checks every count, real-valued argument
and location of the package goes through.

Each mediator record is the one place that knows its kind: its wire format,
its checks against the player count, its protected intervals, its analytic
intervention-cost bounds, its adversarial fixture and its characterized
equilibria.  A private ``kind -> class`` registry resolves kind strings for
the wire format, the fixtures and the command line.  The direction rules and
their compilers live in :mod:`hotelling_mediators.mediators`.

Everything here is immutable and purely functional; values can be shared
freely across threads.  The one slot filled after construction is a game's
``plan_arrays``, written once with arrays that depend only on the game, so
two threads racing to fill it only build the same arrays twice.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Sequence
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
    "GameSpec",
    "validate_location",
    "validate_profile",
    "optimal_locations",
    "quantile_locations",
]

# Tolerance used when validating that a density integrates to one.
_NORMALIZATION_TOL = 1e-12


def _players(n, least=2):
    """``n`` as an int, unless it is no integer (bools included) or below
    ``least``: then ValueError.  Every player count is checked here."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"the number of players must be an integer, got n={n!r}")
    if n < least:
        raise ValueError(f"need at least {'one player' if least == 1 else 'two players'}, got n={n}")
    return int(n)


def _integer(name, value, least):
    """``value`` as an int, unless it is no integer (bools included) or below
    ``least``: then ValueError.  Every count, seed and index argument other
    than a player count is checked here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _is_real(value):
    """Whether ``value`` is a real number: numpy integers and floats are,
    bools (numpy's included), strings and other types are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(name, value, lo, hi=math.inf, closed=False):
    """``value`` as a float, unless it is no real number (see
    :func:`_is_real`), is NaN or lies outside ``(lo, hi)``, or ``[lo, hi)``
    when ``closed``: then ValueError.  Every real-valued tolerance, step, rule
    parameter and density knot is checked here; the default ``hi`` demands a
    finite value."""
    if not _is_real(value) or not (lo <= value if closed else lo < value) or not value < hi:
        raise ValueError(f"{name} must be a real number in {'[' if closed else '('}{lo!r}, {hi!r}), got {value!r}")
    return float(value)


def _is_sequence(value):
    """Whether ``value`` is a sequence of entries: a tuple, a list, another
    ``Sequence`` or a one-dimensional numpy array, but no string or bytes."""
    return isinstance(value, (tuple, list)) or not isinstance(value, (str, bytes, bytearray)) and (
        isinstance(value, Sequence) or getattr(value, "ndim", None) == 1
    )


def _location(value):
    """``value`` as a float when it is a real number (see :func:`_is_real`)
    in [0, 1], else None (NaN included).  Every location, quantile level
    and dictated target is judged here."""
    # A float, numpy's float64 included, skips the slower abstract test.
    if isinstance(value, float) or _is_real(value):
        value = float(value)
        if 0.0 <= value <= 1.0:
            return value
    return None


def validate_location(t, name="t"):
    """``t`` as a float in [0, 1]; ValueError unless :func:`_location`
    accepts it."""
    loc = _location(t)
    if loc is None:
        raise ValueError(f"{name} must be a real number in [0, 1], got {t!r}")
    return loc


def validate_profile(profile, n=None, name="profile"):
    """``profile`` as a tuple of floats, in its order, unless it is no
    sequence (a tuple, a list, a one-dimensional numpy array; no string or
    bytes) of at least one, or ``n``, entries accepted by :func:`_location`:
    then ValueError naming ``name``."""
    if not _is_sequence(profile):
        raise ValueError(f"{name} must be a sequence of locations, got {profile!r}")
    locs = tuple(map(_location, profile))
    if None in locs:
        i = locs.index(None)
        raise ValueError(f"{name}[{i}] must be a real number in [0, 1], got {profile[i]!r}")
    if n is not None and len(locs) != n:
        raise ValueError(f"{name} has {len(locs)} locations, expected {n}")
    if not locs:
        raise ValueError(f"{name} must contain at least one location")
    return locs


# ---------------------------------------------------------------------------
# User distributions
# ---------------------------------------------------------------------------


class _Density:
    """Base of the user densities.  Each public method checks its arguments
    here, once, through :func:`validate_location`, and then evaluates the
    density's unchecked form: ``_density``, ``_cdf``, ``_first_moment``, the
    ``abs_moment`` of ``_integrals({})`` and :meth:`quantile_array`.  The
    ``*_array`` methods check nothing."""

    def density(self, t):
        return self._density(validate_location(t))

    def cdf(self, t):
        return self._cdf(validate_location(t))

    def quantile(self, p):
        """Smallest location q with cdf(q) = p; flat (zero density) stretches
        resolve to their left endpoint."""
        return float(self.quantile_array(validate_location(p, "quantile level")))

    def mass(self, a, b):
        """User mass of the interval [a, b]."""
        a, b = validate_location(a, "a"), validate_location(b, "b")
        return self._cdf(b) - self._cdf(a)

    def first_moment(self, a, b):
        """Integral of t over [a, b] against the density."""
        return self._first_moment(validate_location(a, "a"), validate_location(b, "b"))

    def abs_moment(self, c, a, b):
        """Integral of |c - t| over [a, b] against the density."""
        _, abs_moment = self._integrals({})
        return abs_moment(validate_location(c, "c"), validate_location(a, "a"), validate_location(b, "b"))


@dataclass(frozen=True)
class Uniform(_Density):
    """Uniform user distribution on [0, 1]."""

    kind: ClassVar[str] = "uniform"
    # (interior breakpoints, degree of a payoff along a deviation line
    # between kinks): a piece's user mass, with one end moving at half the
    # deviation's speed, is linear under a constant density.
    line_shape: ClassVar[tuple] = ((), 1)

    def _density(self, t):
        return 1.0

    def _cdf(self, t):
        return t

    def mass_array(self, a, b):
        """:meth:`mass` elementwise over arrays, unchecked."""
        return b - a

    def _first_moment(self, a, b):
        return 0.5 * (b * b - a * a)

    def _abs_moment(self, c, a, b):
        if b <= c:
            return c * (b - a) - 0.5 * (b * b - a * a)
        if a >= c:
            return 0.5 * (b * b - a * a) - c * (b - a)
        return 0.5 * ((c - a) * (c - a) + (b - c) * (b - c))

    def _integrals(self, memo):
        """``(mass, abs_moment)``, unchecked: the closed forms, which need no
        prefixes, so ``memo`` goes unused."""
        return self.mass_array, self._abs_moment

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
class PiecewiseLinearDensity(_Density):
    """Continuous piecewise-linear user density on [0, 1].

    The density interpolates ``values`` linearly between consecutive
    ``breakpoints``; the breakpoints must be strictly increasing and cover 0
    and 1, the values must be nonnegative, and the density must integrate to
    one.  CDF, quantile and first-moment integrals are evaluated in closed
    form per segment, so no quadrature error enters downstream computations.
    """

    breakpoints: tuple
    values: tuple
    # Built in __post_init__ by one loop over the segments: the left ends of
    # the segments, and the segment table, per segment the constants of
    # :meth:`_prefix` (the prefix integrals of g and of t*g at its left end
    # among them) and the segment's width.  ``_columns`` is the same table
    # as a read-only array for the ``*_array`` methods: row j holds the j-th
    # constant of every segment.
    _starts: tuple = field(init=False, repr=False, compare=False)
    _segments: tuple = field(init=False, repr=False, compare=False)
    _columns: np.ndarray = field(init=False, repr=False, compare=False)

    kind: ClassVar[str] = "pwl"

    @property
    def line_shape(self):
        """The interior breakpoints, and the degree (2) of a payoff along a
        deviation line between kinks, as for :attr:`Uniform.line_shape`."""
        return self.breakpoints[1:-1], 2

    def __post_init__(self):
        for name, knots in (("breakpoints", self.breakpoints), ("values", self.values)):
            if not _is_sequence(knots):
                raise ValueError(f"{name} must be a sequence of real numbers, got {knots!r}")
        xs = tuple(_real("breakpoint", x, -math.inf) for x in self.breakpoints)
        gs = tuple(_real("density value", g, 0.0, closed=True) for g in self.values)
        if len(xs) != len(gs):
            raise ValueError("breakpoints and values must have equal length")
        if len(xs) < 2:
            raise ValueError("need at least two breakpoints")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        cum_mass, cum_fm, segments = [0.0], [0.0], []
        for k in range(len(xs) - 1):
            # Each constant by the expression the segment's formulas use; the
            # cube is spelled as products because numpy's ``x ** 3`` and
            # Python's ``pow`` can differ by an ulp.
            x0, x1 = xs[k], xs[k + 1]
            h = x1 - x0
            m = (gs[k + 1] - gs[k]) / h
            half_c = 0.5 * (gs[k] - m * x0)
            x0_sq = x0 * x0
            x0_cube = x0_sq * x0
            segments.append((x0, gs[k], 0.5 * m, cum_mass[k], cum_fm[k], half_c, m, x0_sq, x0_cube, h))
            cum_mass.append(cum_mass[k] + 0.5 * h * (gs[k] + gs[k + 1]))
            cum_fm.append(cum_fm[k] + (half_c * (x1 * x1 - x0_sq) + m * (x1 * x1 * x1 - x0_cube) / 3.0))
        if abs(cum_mass[-1] - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"density integrates to {cum_mass[-1]!r}, expected 1 within {_NORMALIZATION_TOL}"
            )
        columns = np.array(segments).T
        columns.flags.writeable = False
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", gs)
        object.__setattr__(self, "_starts", xs[:-1])
        object.__setattr__(self, "_segments", tuple(segments))
        object.__setattr__(self, "_columns", columns)

    def __reduce__(self):
        # A copy is rebuilt from the knots, its derived fields read-only.
        return type(self), (self.breakpoints, self.values)

    def _density(self, t):
        k = bisect_right(self._starts, t) - 1
        xs, gs = self.breakpoints, self.values
        w = (t - xs[k]) / (xs[k + 1] - xs[k])
        return gs[k] + w * (gs[k + 1] - gs[k])

    def _cdf(self, t):
        return self._prefix(t)[0]

    def _prefix(self, x):
        # (cdf(x), integral of t*g(t) from 0 to x) for an x in [0, 1],
        # unchecked: one lookup in the segment table, then the formula of
        # cdf and the closed form of the segment's first moment.
        x0, g0, half_m, cum_mass, cum_fm, half_c, m, x0_sq, x0_cube, _ = self._segments[
            bisect_right(self._starts, x) - 1
        ]
        u = x - x0
        x_sq = x * x
        cdf = cum_mass + u * (g0 + half_m * u)
        return cdf, cum_fm + (half_c * (x_sq - x0_sq) + m * (x_sq * x - x0_cube) / 3.0)

    def _first_moment(self, a, b):
        return self._prefix(b)[1] - self._prefix(a)[1]

    def _integrals(self, memo):
        """``(mass, abs_moment)``, unchecked, each bitwise the public
        method's value.  A point's prefixes are computed on first use and
        kept in ``memo``, a dict from point to prefixes, for every later use:
        a piece's upper end serves as the next piece's lower end, and a
        facility's prefixes are computed only when a piece straddles it.
        The integrators pass the memo that the compile they price carries
        (see :func:`hotelling_mediators.mediators._compile`), so payoff,
        social cost and gap on one profile share it."""

        def prefix(x):
            p = memo.get(x)
            if p is None:
                p = memo[x] = self._prefix(x)
            return p

        def mass(a, b):
            return prefix(b)[0] - prefix(a)[0]

        def abs_moment(c, a, b):
            (cdf_a, fm_a), (cdf_b, fm_b) = prefix(a), prefix(b)
            if b <= c:
                return c * (cdf_b - cdf_a) - (fm_b - fm_a)
            if a >= c:
                return (fm_b - fm_a) - c * (cdf_b - cdf_a)
            cdf_c, fm_c = prefix(c)
            return (c * (cdf_c - cdf_a) - (fm_c - fm_a)) + ((fm_b - fm_c) - c * (cdf_b - cdf_c))

        return mass, abs_moment

    def _cdf_array(self, t):
        # Arrays of cdf(t), by the formula of _prefix, and of the segment
        # index of t, the lookup of _prefix.
        k = np.maximum(np.searchsorted(self._columns[0], t, side="right") - 1, 0)
        x0, g0, half_m, cum_mass = self._columns[:4].take(k, axis=1)
        u = t - x0
        return cum_mass + u * (g0 + half_m * u), k

    def _prefixes_array(self, t):
        # Arrays of cdf(t) and of the first-moment prefix at t, by the
        # formulas of _prefix.
        cdf, k = self._cdf_array(t)
        cum_fm, half_c, m, x0_sq, x0_cube = self._columns[4:9].take(k, axis=1)
        t_sq = t * t
        return cdf, cum_fm + (half_c * (t_sq - x0_sq) + m * (t_sq * t - x0_cube) / 3.0)

    def mass_array(self, a, b):
        """:meth:`mass` elementwise over broadcast arrays, bitwise equal."""
        return self._cdf_array(b)[0] - self._cdf_array(a)[0]

    def abs_moment_array(self, c, a, b):
        """:meth:`abs_moment` elementwise over broadcast arrays, bitwise equal.
        Each argument's prefixes are computed on its own shape, before the
        terms broadcast."""
        cdf_a, fm_a = self._prefixes_array(a)
        cdf_b, fm_b = self._prefixes_array(b)
        cdf_c, fm_c = self._prefixes_array(c)
        below = c * (cdf_b - cdf_a) - (fm_b - fm_a)
        above = (fm_b - fm_a) - c * (cdf_b - cdf_a)
        left = c * (cdf_c - cdf_a) - (fm_c - fm_a)
        right = (fm_b - fm_c) - c * (cdf_b - cdf_c)
        return np.where(b <= c, below, np.where(a >= c, above, left + right))

    def quantile_array(self, p):
        """:meth:`quantile` elementwise over an array of levels, in the
        input's shape, unchecked: per-segment quadratic inversion."""
        p = np.asarray(p, dtype=float)
        # Levels are searched among the segments' mass prefixes, so one past
        # the last of them (1 when the mass rounds below it) falls in the
        # last segment.
        j = np.searchsorted(self._columns[3], p, side="left")
        x0, g0, _, cum_mass, _, _, m, _, _, h = self._columns.take(np.maximum(j - 1, 0), axis=1)
        r = np.maximum(p - cum_mass, 0.0)
        disc = np.maximum(g0 * g0 + 2.0 * m * r, 0.0)
        denom = g0 + np.sqrt(disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(denom > 0.0, 2.0 * r / np.where(denom > 0.0, denom, 1.0), 0.0)
        q = np.where(j == 0, 0.0, x0 + np.minimum(np.maximum(u, 0.0), h))
        return np.clip(q, 0.0, 1.0)

    def to_json(self):
        return {
            "kind": "pwl",
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }


UserDistribution = Union[Uniform, PiecewiseLinearDensity]

UNIFORM = Uniform()


def _json_list(obj, key):
    # The record or density built from the list judges its entries.
    values = obj.get(key)
    if not isinstance(values, list):
        raise ValueError(f"{obj['kind']} needs {key!r} as a list")
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
        return PiecewiseLinearDensity(_json_list(obj, "breakpoints"), _json_list(obj, "values"))
    raise ValueError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Reference locations
# ---------------------------------------------------------------------------


def optimal_locations(n):
    """The n socially optimal locations ((2i-1)/(2n) for i = 1..n): the
    uniform density's :func:`quantile_locations`.

    Under nearest-facility assignment and the uniform distribution these
    minimize the users' total travel distance.
    """
    return quantile_locations(n)


def quantile_locations(n, dist=UNIFORM):
    """Distribution-adapted counterpart of :func:`optimal_locations`.

    Returns the quantiles of ``dist`` at levels (2i-1)/(2n), priced in one
    :meth:`quantile_array` call; for the uniform distribution these are the
    levels themselves.
    """
    n = _players(n, least=1)
    return tuple(dist.quantile_array([(2 * i - 1) / (2 * n) for i in range(1, n + 1)]).tolist())


# ---------------------------------------------------------------------------
# Mediator records
# ---------------------------------------------------------------------------

# Proofs about the limited-intervention rules need the random-redirect weight
# to be small; the strictest assumption used anywhere is epsilon < 1/3, so the
# library enforces that bound for every rule that uses epsilon.
_EPSILON_MAX = 1.0 / 3.0


def _check_offset_fixture(kind, n, delta):
    if n < 3:
        raise ValueError(f"the {kind} fixture needs n >= 3")
    _real("delta", delta, 0.0, 1.0 / (2 * n))


def _corners(a, b):
    return [(a, a), (a, b), (b, a), (b, b)]


class Mediator:
    """Base of the mediator records (see the module docstring).

    The defaults describe a rule that never overrides the nearest-facility
    assignment and about which nothing is proven; each record overrides what
    differs for its kind.  Every kind runs the one direction rule of
    :mod:`hotelling_mediators.mediators`, which reads here who may serve
    (:meth:`eligible`) and where it intervenes (:meth:`intervals`).
    """

    kind: ClassVar[str]
    # Dictated target locations, one per player.
    targets: ClassVar[tuple] = ()
    # The share of users redirected at random inside an interval occupied on
    # one side only, and whether users inside one occupied on both sides go
    # 50/50 to the nearest on each side rather than to the nearest of both.
    epsilon: ClassVar[float] = 0.0
    half_split: ClassVar[bool] = False
    # The wire format after ``kind``: (key, field) pairs in the order that
    # :meth:`to_json` writes them (None left out, tuples as lists); from_json
    # passes the keys present, and only those, for the constructor to judge.
    wire: ClassVar[tuple] = ()

    def bind(self, n):
        """This record as used in an n-player game; ValueError if it cannot be."""
        return self

    def intervals(self, n, dist):
        """Protected intervals: open, disjoint, increasing, inside (0, 1)."""
        return ()

    def eligible(self, locs):
        """Indices of the players that may serve users at profile ``locs``:
        every player by default."""
        return range(len(locs))

    def eligible_rows(self, locs):
        """:meth:`eligible` as a boolean mask over profiles held player-major,
        an ``(n, B)`` array with one column per profile, or None when every
        player is eligible in every profile."""
        return None

    def switch_points(self, locs, player):
        """The locations where :meth:`eligible` can change for ``player`` as
        it moves, the others fixed at ``locs``: none by default."""
        return ()

    def to_json(self):
        out = {"kind": self.kind}
        for key, name in self.wire:
            value = getattr(self, name)
            if value is not None:
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json(cls, obj):
        return cls(**{name: obj[key] for key, name in cls.wire if key in obj})

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

    def pne_costs(self, n):
        """Best and worst equilibrium social cost under the uniform density;
        ``(None, None)`` for n = 3, which has no equilibrium."""
        if n == 2:
            return 0.25, 0.25
        if n == 3:
            return None, None
        return 1.0 / (4 * (n - 2)), 1.0 / (4 * math.ceil(n / 2))


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
    wire: ClassVar[tuple] = (("equalityTol", "equality_tol"), ("targets", "targets"))

    def __post_init__(self):
        if self.targets is not None:
            object.__setattr__(self, "targets", validate_profile(self.targets, name="targets"))
        object.__setattr__(self, "equality_tol", _real("equality_tol", self.equality_tol, 0.0, closed=True))

    def bind(self, n):
        if self.targets is None:
            return replace(self, targets=optimal_locations(n))
        validate_profile(self.targets, n, name="targets")
        return self

    def eligible(self, locs):
        return [i for i, s in enumerate(locs) if abs(s - self.targets[i]) <= self.equality_tol]

    def eligible_rows(self, locs):
        return np.abs(locs - np.asarray(self.targets)[:, None]) <= self.equality_tol

    def switch_points(self, locs, player):
        t = self.targets[player]
        return (t - self.equality_tol, t, t + self.equality_tol)

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

    wire: ClassVar[tuple] = (("epsilon", "epsilon"),)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon, 0.0, _EPSILON_MAX))


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

    # No usable default: None fails the check, as a missing "lambda" must.
    lam: float = None
    epsilon: float = 1e-3

    kind: ClassVar[str] = "clime"
    wire: ClassVar[tuple] = (("lambda", "lam"), ("epsilon", "epsilon"))

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "lam", _real("lambda", self.lam, 0.0, 0.5))

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
    only where the kind reads them (its ``wire``).  Any other shape, a key
    the kind does not read included, raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a mediator must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    cls = _MEDIATORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown mediator kind {kind!r}")
    keys = ["kind", *(key for key, _ in cls.wire)]
    unread = [key for key in obj if key not in keys]
    if unread:
        raise ValueError(f"mediator kind {kind!r} does not read {unread[0]!r}; it reads {', '.join(keys)}")
    return cls.from_json(obj)


# ---------------------------------------------------------------------------
# Game description
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class GameSpec:
    """A game is the number of players, the mediator, and the user density.

    The mediator is bound to the player count at construction, and the
    game's fixed geometry is built once, here, for every path to read:
    ``piis``, the protected intervals; ``ends``, their endpoints in order
    (a shared one twice) between -inf and inf; and ``kink_families``,
    ``(levels, centres, lows, highs)``: the c of y_i = c (0, 1, density
    breakpoints, endpoints, snap-band edges) and of y_i + y_j = 2c
    (endpoints, density breakpoints), each sorted, and the snap bands'
    edges after a -inf sentinel, all Python floats.  From ``ends`` come the
    row compiler's read-only arrays: ``pii_arrays``, ``(ends, bounds)``
    with the lower ends over the upper ends, shape ``(2, intervals)``, and
    ``fixed_breakpoints``, 0, 1 and the distinct endpoints, sorted.
    ``nime_twin`` is the same game under no intervention, built once here
    for every intervention gap; a no-intervention game is its own twin.
    ``plan_arrays`` is None until the game's first grid enumeration keeps
    its probe plan there as arrays, for every later one.
    """

    n: int
    mediator: Mediator
    distribution: UserDistribution = UNIFORM
    piis: tuple = field(init=False, repr=False, compare=False)
    ends: tuple = field(init=False, repr=False, compare=False)
    kink_families: tuple = field(init=False, repr=False, compare=False)
    pii_arrays: tuple = field(init=False, repr=False, compare=False)
    fixed_breakpoints: np.ndarray = field(init=False, repr=False, compare=False)
    nime_twin: GameSpec = field(init=False, repr=False, compare=False)
    plan_arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _players(self.n))
        if not isinstance(self.mediator, Mediator):
            raise TypeError(f"not a mediator: {self.mediator!r}")
        if not isinstance(self.distribution, _Density):
            raise TypeError(f"not a user distribution: {self.distribution!r}")
        object.__setattr__(self, "mediator", self.mediator.bind(self.n))
        piis = self.mediator.intervals(self.n, self.distribution)
        endpoints = tuple(e for pii in piis for e in pii)
        breaks, _ = self.distribution.line_shape
        lows = (-math.inf, *(e - _PII_FACILITY_SNAP for e in endpoints))
        highs = (-math.inf, *(e + _PII_FACILITY_SNAP for e in endpoints))
        levels = tuple(sorted({0.0, 1.0, *breaks, *endpoints, *lows[1:], *highs[1:]}))
        object.__setattr__(self, "piis", piis)
        object.__setattr__(self, "ends", (-math.inf, *endpoints, math.inf))
        object.__setattr__(self, "kink_families", (levels, tuple(sorted({*endpoints, *breaks})), lows, highs))
        arrays = (np.array(self.ends), np.array(piis).reshape(-1, 2).T, np.array(sorted({0.0, 1.0, *endpoints})))
        for array in arrays:
            array.flags.writeable = False
        object.__setattr__(self, "pii_arrays", arrays[:2])
        object.__setattr__(self, "fixed_breakpoints", arrays[2])
        twin = self if isinstance(self.mediator, Nime) else GameSpec(self.n, Nime(), self.distribution)
        object.__setattr__(self, "nime_twin", twin)

    def __reduce__(self):
        # A copy is rebuilt from the constructor's arguments: its arrays are
        # read-only again, and it keeps no probe plan.
        return type(self), (self.n, self.mediator, self.distribution)
