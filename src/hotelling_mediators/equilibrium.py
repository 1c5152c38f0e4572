"""Pure Nash equilibrium verification, enumeration, and related diagnostics.

Deviations live in a continuum, and every verdict is exact over it (see
:func:`_exact_check`): fix the opponents and move one player's location y.
Between consecutive *kinks*, which the compiler module works out (see
:func:`~hotelling_mediators.mediators._line_kinks`; this module only prices
the lines), the player's payoff is a polynomial in y, of degree at most 1
under the uniform density and at most 2 under a piecewise-linear one, so a
few priced points per piece give the exact supremum of the payoff along the
whole line (see :func:`_lines_max`).  One check prices every player's line
at once: all players' kinks and interior points go out as one stream of
(player, y) rows in blocks, then all their stationary points as a second
stream, each row bitwise as pricing its deviation alone.

The early-exit check and grid enumeration first probe a finite candidate set
in one fixed order, the probe plan (:func:`_probe_plan`, its only builder):
opponent locations (with one-sided offsets standing in for one-sided limits),
the reflections of opponents through protected-interval endpoints, the
endpoints themselves and the distribution's reference locations.  The plan is
a fast refuter only: any one player's improving deviation refutes a profile,
so the plan takes the players round-robin, first over their opponent entries
and then over the static points, and a profile it does not refute goes on to
the exact check.  The opponent entries run from the last player to the first,
and each player takes its nearest opponent first, approached from the
player's own side: on a sorted profile the first probe is the last player's
inward undercut, which alone refutes most grid profiles, and its row does not
read the last coordinate, the one the grid walk counts up fastest.
:func:`_refute_fast` is the single-profile path: it walks the plan one scalar
payoff at a time.  Grid enumeration refutes blocks of profiles in waves
instead, pricing every wave's deviations as one block of rows, and a block's
base payoffs with its first wave; a wave holds one probe's rows together, and
every row stream here and in :mod:`~hotelling_mediators.metrics` goes through
one pricer, :func:`~hotelling_mediators.metrics._price_rows`, which prices a
run of equal rows once.  Each row is priced bitwise as the scalar path prices
it, so the verdicts agree.  Enumeration pays its fixed costs once: a game
keeps the plan as arrays from its first enumeration on (:func:`_plan_arrays`),
and the grid's sorted profiles come out directly as integer arrays, block by
block (:func:`_grid_blocks`).  The order moves only which deviation refutes a
profile first, never whether one does.
Better-response dynamics reads the same plan without the one-sided offsets,
plus a grid of its own, and prices every player's candidates as one stream.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _integer, _real, quantile_locations, validate_profile
from .mediators import _line_kinks
from .metrics import _MAX_PROFILES, _block_rows, _payoff_locs, _payoff_rows, _pool_map, _price_rows

__all__ = [
    "PneReport",
    "is_pne",
    "pne_enumerate",
    "known_pne",
    "DynamicsTrace",
    "better_response_dynamics",
    "neutrality_check",
]

# One-sided offset used to probe the limits of payoffs that jump at facility
# pairings and interval endpoints.
_SIDE_DELTA = 1e-6

_DEFAULT_GAIN_TOL = 1e-9

# Rows per kernel call of a :func:`_price_streams` pass, in blocks of
# ``_block_rows(game)`` (about 4 * 8,192 weight entries).  Its two callers
# price short, bounded streams: at n = 6 the first pass of an exhaustive
# check holds 229-564 rows for lime under the uniform density and up to 850
# for glime under a zigzag, the second pass few or none, and a state of
# better-response dynamics on lime about 690.  Each kernel call costs about
# 120 us before it prices a row, so a 404-row lime pass takes 2 calls in
# blocks of 260 rows rather than 7 in blocks of 65.
_STREAM_BLOCKS = 4

_log = logging.getLogger("hotelling_mediators")


def _probe_plan(game, side=_SIDE_DELTA):
    """The finite candidate set, one entry per probe, in probe order: the
    players' opponent entries, round-robin over the players from the last to
    the first, then the static entries, round-robin over the players from
    the first.  Any player's improving deviation refutes a profile, and a
    profile usually falls to whichever player sits worst, so entry k of every
    player comes before entry k + 1 of any; each player's own entries keep
    their order.

    An entry ``(player, col, scale, offset)`` stands for the deviation
    ``clip(scale * locs[col] + offset, 0, 1)`` of ``player`` (see
    :func:`_probe`).  A player takes its opponents nearest index first, the
    higher index first on a tie, and approaches each opponent z from its own
    side first: z + side, z - side, z when the opponent's index is lower,
    z - side, z + side, z when it is higher.  Then each interval endpoint e
    gives the reflections 2e - z in the same opponent order (where a moving
    basin boundary can change slope).  Under IEEE rounding ``1.0 * z - d``
    is ``z - d``, ``1.0 * z + (-0.0)`` is ``z`` with its sign of zero, and
    ``-1.0 * z + 2e`` is ``2e - z``.  Every player has the same number of
    opponent entries.  On a sorted profile the first entry is the inward
    undercut of the last player, just right of its neighbour, which refutes
    most grid profiles; its deviation does not read the last coordinate, so
    along a run of the grid walk, which counts that coordinate up, its rows
    repeat (see :func:`_refute_rows`).

    A static entry has scale zero and the point as offset: each endpoint e,
    e - side and e + side, the reference locations, the dictated targets, 0
    and 1.  With ``side=0.0`` each one-sided entry repeats its anchor.  The
    plan is lazy, so an early exit builds only what it probes: the static
    points are worked out only once every opponent entry has been taken.
    """

    def opponent_entries(player):
        opponents = sorted((j for j in range(game.n) if j != player), key=lambda j: (abs(j - player), -j))
        for j in opponents:
            toward = side if j < player else -side
            yield player, j, 1.0, toward
            yield player, j, 1.0, -toward
            yield player, j, 1.0, -0.0
        for e in game.ends[1:-1]:
            for j in opponents:
                yield player, j, -1.0, 2.0 * e

    for entries in zip(*map(opponent_entries, reversed(range(game.n)))):
        yield from entries
    static = [p for e in game.ends[1:-1] for p in (e, e - side, e + side)]
    static += quantile_locations(game.n, game.distribution)
    static += game.mediator.targets
    static += [0.0, 1.0]
    for p in static:
        for player in range(game.n):
            yield player, 0, 0.0, p


def _probe(locs, entry):
    """The deviation a probe-plan entry stands for at profile ``locs``."""
    _, col, scale, offset = entry
    return min(max(scale * locs[col] + offset, 0.0), 1.0)


def _deviation_payoffs(game, locs, deviations):
    """The candidate-scan loop: ``(player, y, payoff of player at y)`` for
    each deviation ``(player, y)``, opponents fixed, in probe order."""
    for player, y in deviations:
        trial = list(locs)
        trial[player] = y
        yield player, y, _payoff_locs(game, tuple(trial))[player]


def _newton(xs, fs):
    """Divided-difference coefficients of the polynomial through (xs, fs)."""
    coef = list(fs)
    for k in range(1, len(xs)):
        for j in range(len(xs) - 1, k - 1, -1):
            coef[j] = (coef[j] - coef[j - 1]) / (xs[j] - xs[j - k])
    return coef


def _horner(xs, coef, x):
    """The Newton-form polynomial of :func:`_newton` at ``x``."""
    value = coef[-1]
    for k in range(len(coef) - 2, -1, -1):
        value = value * (x - xs[k]) + coef[k]
    return value


def _price_streams(game, locs, streams):
    """Each ``(player, ys)`` of ``streams`` as ``{y: payoff of player at y}``,
    opponents fixed: the pricing of the exact check and of
    :func:`better_response_dynamics`.

    Every stream's deviations go out as one stream of rows, each row the
    profile with the player's column moved, built at once by one tile of the
    profile and one column write; a block may mix players.  :func:`_price_rows`
    prices them in blocks of ``_STREAM_BLOCKS`` times ``_block_rows(game)``
    rows, so a pass of a small game takes a few kernel calls, and every
    payoff is bitwise the one :func:`_payoff_locs` gives the deviation alone.
    A pass with no deviation, as every second pass under the uniform
    density, prices nothing.
    """
    players = np.array([i for i, line in streams for _ in line], dtype=np.intp)
    if not players.size:
        return [{} for _ in streams]
    at = np.arange(len(players))
    rows = np.tile(np.asarray(locs, dtype=float), (len(players), 1))
    rows[at, players] = [y for _, line in streams for y in line]
    payoffs, _ = _price_rows(_payoff_rows, game, rows, _STREAM_BLOCKS)
    values = iter(payoffs[at, players].tolist())
    return [{y: next(values) for y in line} for _, line in streams]


def _line_plan(game, locs, i, deg):
    """Player ``i``'s kinks and pieces ``(a, b, inner)``, one per span to
    price of :func:`~hotelling_mediators.mediators._line_kinks`, each with
    up to deg + 1 interior points."""
    kinks, spans = _line_kinks(game, locs, i)
    pieces = []
    for a, b in spans:
        inner = []
        for k in range(1, deg + 2):
            y = a + (b - a) * (k / (deg + 2))
            if a < y < b and (not inner or y > inner[-1]):
                inner.append(y)
        pieces.append((a, b, inner))
    return kinks, pieces


def _lines_max(game, locs, players):
    """Exact supremum of each player's payoff along its deviation line, for
    the players of ``players``, as one list entry per player.

    Prices every kink of :func:`~hotelling_mediators.mediators._line_kinks`,
    then deg + 1 interior points of every span it gives to price, whose
    payoffs fix the piece's polynomial; then the stationary point of each
    concave quadratic piece, where the polynomial rises above the piece's
    priced points.  The supremum is the largest of the priced payoffs and of
    both one-sided limits of every fitted piece, the polynomial at its ends.
    A piece too narrow for deg + 1 distinct interior points prices the ones
    it has and is not fitted.  Each of the two passes (every player's kinks
    and interior points, then every player's stationary points) is priced as
    one stream of (player, y) rows by :func:`_price_streams`, bitwise as
    pricing one deviation at a time would; the fits run on the payoffs as
    plain floats.

    Each entry is ``(sup, best, limit, priced)``: the supremum; the best
    priced ``(y, payoff)``; ``(kink, y)`` when the supremum is a one-sided
    limit at ``kink`` above every priced payoff, with ``y`` the best priced
    point of its piece, else None; and the number of payoffs priced.
    """
    _, deg = game.distribution.line_shape
    plans = [(i, *_line_plan(game, locs, i, deg)) for i in players]
    points = [(i, kinks + [y for _, _, inner in pieces for y in inner]) for i, kinks, pieces in plans]
    lines = _price_streams(game, locs, points)
    fitted = [_fit_pieces(pieces, values, deg) for (_, _, pieces), values in zip(plans, lines)]
    more = _price_streams(game, locs, [(i, stationary) for (i, _, _), (_, stationary) in zip(plans, fitted)])
    for values, extra in zip(lines, more):
        values.update(extra)
    return [_line_sup(values, fits, stationary) for values, (fits, stationary) in zip(lines, fitted)]


def _fit_pieces(pieces, values, deg):
    """``(fits, stationary)`` of one line: the Newton fit ``(a, b, inner,
    coef)`` of every piece with deg + 1 priced interior points, and the
    stationary points of the concave quadratic ones that rise above their
    piece's priced points, not priced yet."""
    fits, stationary = [], []
    for a, b, inner in pieces:
        if len(inner) < deg + 1:
            continue
        fs = [values[y] for y in inner]
        coef = _newton(inner, fs)
        fits.append((a, b, inner, coef))
        if deg == 2 and coef[2] < 0.0:
            y = 0.5 * (inner[0] + inner[1]) - coef[1] / (2.0 * coef[2])
            if a < y < b and y not in values and _horner(inner, coef, y) > max(fs):
                stationary.append(y)
    return fits, stationary


def _line_sup(values, fits, stationary):
    """One entry of :func:`_lines_max` from the line's priced ``{y: payoff}``
    and its fits."""
    best = max(values.items(), key=lambda item: item[1])
    sup, limit = best[1], None
    for a, b, inner, coef in fits:
        for kink in (a, b):
            value = _horner(inner, coef, kink)
            if value > sup:
                piece_points = [y for y in stationary if a < y < b] + inner
                sup, limit = value, (kink, max(piece_points, key=values.__getitem__))
    return sup, best, limit, len(values)


def _toward(kink, y):
    """Points halving the distance from ``y`` towards ``kink``, until the
    floats between them run out."""
    while (nxt := 0.5 * (y + kink)) != y and nxt != kink:
        y = nxt
        yield y


def _exact_check(game, locs, gain_tol, base):
    """The exact verdict on one profile whose own payoffs are ``base``, the
    one rule behind every equilibrium verdict, as ``(worst_gain, witness,
    priced)``: the largest supremum gain along the players' deviation lines
    (:func:`_lines_max`); None when it is at most ``gain_tol``, else a priced
    deviation ``(player, y)`` of the worst player; and the payoffs priced.
    When the supremum is a one-sided limit and no priced point beats
    ``gain_tol``, points halving the distance from the limit's piece towards
    its kink are priced until one does."""
    worst_gain, priced = -math.inf, 0
    for player, (sup, best, limit, count) in enumerate(_lines_max(game, locs, range(game.n))):
        priced += count
        if sup - base[player] > worst_gain:
            worst_gain, worst = sup - base[player], (player, best, limit)
    if worst_gain <= gain_tol:
        return worst_gain, None, priced
    player, (y, value), limit = worst
    if value - base[player] <= gain_tol and limit is not None:
        for _, t, value in _deviation_payoffs(game, locs, ((player, t) for t in _toward(*limit))):
            priced += 1
            if value - base[player] > gain_tol:
                y = t
                break
    return worst_gain, (player, y), priced


@dataclass(frozen=True)
class PneReport:
    """Equilibrium verdict, exact over the continuum.

    ``is_pne`` means no deviation of any player, anywhere on [0, 1], improves
    its payoff by more than ``gain_tol``.  ``worst_gain`` is the supremum of
    the gains (it may be a one-sided limit no single deviation attains),
    except in an early-exit refutation, where it is the gain of the witness.
    When the verdict is negative, ``witness`` holds one priced deviation
    ``(player, y)`` whose own gain exceeds ``gain_tol``.  ``candidate_count``
    is the number of deviation payoffs priced.
    """

    is_pne: bool
    worst_gain: float
    witness: tuple | None
    candidate_count: int
    gain_tol: float

    def to_json(self):
        return {
            "isPne": self.is_pne,
            "worstGain": self.worst_gain,
            "witness": None
            if self.witness is None
            else {"player": self.witness[0], "deviation": self.witness[1]},
            "candidateCount": self.candidate_count,
            "gainTol": self.gain_tol,
        }


def is_pne(game, profile, gain_tol=_DEFAULT_GAIN_TOL, exhaustive=True):
    """Check a profile against the deviations of every player, exactly.

    The verdict is :func:`_exact_check`'s in both modes.  With
    ``exhaustive=False`` the probe plan's candidates are scanned first, in
    plan order, the players round-robin, up to the first beneficial
    deviation: ``witness`` is that deviation, ``worst_gain`` is then the gain
    found rather than the supremum, which is all a refutation needs, and
    ``candidate_count`` counts the probes made up to it.  A profile the plan
    does not refute goes on to the exact check, and its report is the
    exhaustive one, with the plan's probes added to ``candidate_count``.  An
    ``exhaustive`` that is no bool raises ValueError, as does a ``gain_tol``
    that is not a positive finite number.
    """
    gain_tol = _real("gain_tol", gain_tol, 0.0)
    if not isinstance(exhaustive, (bool, np.bool_)):
        raise ValueError(f"exhaustive must be a bool, got {exhaustive!r}")
    locs = validate_profile(profile, game.n)
    if exhaustive:
        count, hit, base = 0, None, _payoff_locs(game, locs)
    else:
        count, hit, base = _refute_fast(game, locs, gain_tol)
    if hit is None:
        worst_gain, witness, priced = _exact_check(game, locs, gain_tol, base)
        count += priced
    else:
        worst_gain, witness = hit[2], hit[:2]
    return PneReport(
        is_pne=witness is None, worst_gain=worst_gain, witness=witness, candidate_count=count, gain_tol=gain_tol
    )


def _refute_fast(game, locs, gain_tol):
    """Early-exit refutation of one profile.

    Returns ``(probes, hit, base)``: the deviations priced; None when no
    candidate beats the profile, else the first witness found as ``(player,
    deviation, gain)``; and the profile's own payoffs.  Walks
    :func:`_probe_plan` one scalar payoff at a time, the players
    round-robin, so the first hit is usually within the first pass over the
    players' opponent entries; the static tail is built only when every
    opponent entry misses.  Skips deduplication: a duplicate only costs one
    redundant evaluation.  Enumeration walks the same plan in waves of rows.
    """
    base = _payoff_locs(game, locs)
    deviations = ((e[0], _probe(locs, e)) for e in _probe_plan(game))
    probes = 0
    for player, y, value in _deviation_payoffs(game, locs, deviations):
        probes += 1
        if value > base[player] + gain_tol:
            return probes, (player, y, value - base[player]), base
    return probes, None, base


def _unrank_combo(rank, top, n):
    """The ``rank``-th (0-based) entry of
    ``combinations_with_replacement(range(top + 1), n)``, by stars and bars."""
    combo = []
    value = 0
    for slots in range(n - 1, -1, -1):
        # Sorted tails of length ``slots`` over value..top, after ``value``.
        while rank >= (block := math.comb(top - value + slots, slots)):
            rank -= block
            value += 1
        combo.append(value)
    return combo


def _grid_blocks(top, n, start, stop, size):
    """Entries ``start`` to ``stop - 1`` of
    ``combinations_with_replacement(range(top + 1), n)``, in order, as
    integer arrays of ``size`` rows (the last may hold fewer), without
    iterating past the first ``start``.  The rows are written as runs of the
    last coordinate: each run keeps the other coordinates and counts the last
    one up to ``top``, and the next run raises the rightmost coordinate below
    ``top`` by one and copies it into every later coordinate."""
    idx = _unrank_combo(start, top, n)
    for first in range(start, stop, size):
        block = np.empty((min(size, stop - first), n), dtype=np.int64)
        k = 0
        while k < len(block):
            run = min(top + 1 - idx[-1], len(block) - k)
            block[k : k + run, :-1] = idx[:-1]
            block[k : k + run, -1] = np.arange(idx[-1], idx[-1] + run)
            k += run
            idx[-1] += run
            if idx[-1] > top:
                i = n - 2
                while i >= 0 and idx[i] == top:
                    i -= 1
                # i < 0 only after the grid's last entry.
                if i >= 0:
                    idx[i:] = [idx[i] + 1] * (n - i)
        yield block


def _plan_arrays(game):
    """:func:`_probe_plan` as four read-only arrays (player, col, scale,
    offset), built on the game's first enumeration and kept on the game
    (``game.plan_arrays``) for every later one."""
    plan = game.plan_arrays
    if plan is None:
        plan = tuple(np.array(v) for v in zip(*_probe_plan(game)))
        for array in plan:
            array.flags.writeable = False
        object.__setattr__(game, "plan_arrays", plan)
    return plan


def _refute_rows(game, locs, gain_tol, plan):
    """:func:`_refute_fast` over the rows of a ``(B, n)`` array at once.

    ``plan`` is :func:`_probe_plan` as four arrays (player, col, scale,
    offset), as :func:`_plan_arrays` keeps them.  The live profiles take
    their probes in doubling waves (1, 2, 4, ... probes each), and each
    profile drops out at its first hit; the base payoffs are priced in the
    same :func:`_payoff_rows` call as the first wave.  A wave is built
    probe-major, ``(width, live, n)``, so one probe's rows are consecutive
    and, on sorted grid blocks, follow the grid's runs: a probe that does
    not read the last coordinate (the plan's first, on a sorted profile)
    repeats its row along each run, and :func:`_price_rows` prices every run
    of equal rows once.  A wave is capped at ``_block_rows(game)`` rows, so
    with B at most that the first call holds at most two blocks of rows and
    every later one at most one: each wave is one kernel call.  Every row is priced bitwise as
    :func:`_refute_fast` prices it, whatever else its call holds, so the
    verdicts are the scalar scan's; survivors take every probe.  Returns
    ``(survivors, waves, rows, priced)``: the indices of the rows no probe
    refuted, the probe waves, the rows judged (base rows plus every probe of
    every live profile) and the distinct rows actually priced.
    """
    player, col, scale, offset = plan
    n = game.n
    block = _block_rows(game)
    threshold = None
    live = np.arange(len(locs))
    waves, rows, priced = 0, len(locs), 0
    k, want = 0, 1
    while live.size and k < len(player):
        width = min(want, len(player) - k, max(1, block // live.size))
        j = np.arange(k, k + width)
        at = np.arange(width)
        profiles = locs[live]
        trial = np.repeat(profiles[None], width, axis=0)
        moved = scale[j, None] * profiles[:, col[j]].T + offset[j, None]
        trial[at, :, player[j]] = np.minimum(np.maximum(moved, 0.0), 1.0)
        trial = trial.reshape(-1, n)
        if threshold is None:
            value, count = _price_rows(_payoff_rows, game, np.concatenate([locs, trial]), blocks=2)
            threshold = value[: len(locs)] + gain_tol
            value = value[len(locs) :]
        else:
            value, count = _price_rows(_payoff_rows, game, trial, blocks=2)
        hit = value.reshape(width, live.size, n)[at, :, player[j]] > threshold[live][:, player[j]].T
        live = live[~hit.any(axis=0)]
        waves += 1
        rows += len(trial)
        priced += count
        k += width
        want *= 2
    return live, waves, rows, priced


def _enumerate_chunk(args):
    """Grid profiles ``start`` to ``stop - 1`` that are equilibria, as
    ``(found, waves, rows, priced, checked, seconds)``: the game's kept
    probe-plan arrays (:func:`_plan_arrays`) refute the profiles, one block
    of rows from :func:`_grid_blocks` at a time, with :func:`_refute_rows`,
    whose waves, rows judged and rows priced are summed, and the ``checked``
    profiles they leave go through exhaustive :func:`is_pne`."""
    game, grid_n, start, stop, gain_tol = args
    began = time.perf_counter()
    plan = _plan_arrays(game)
    found, waves, rows, priced, checked = [], 0, 0, 0, 0
    for grid in _grid_blocks(grid_n, game.n, start, stop, _block_rows(game)):
        locs = grid / grid_n
        survivors, block_waves, block_rows, block_priced = _refute_rows(game, locs, gain_tol, plan)
        checks = map(tuple, locs[survivors].tolist())
        found += [p for p in checks if is_pne(game, p, gain_tol).is_pne]
        waves += block_waves
        rows += block_rows
        priced += block_priced
        checked += len(survivors)
    return found, waves, rows, priced, checked, time.perf_counter() - began


def pne_enumerate(game, grid_step, gain_tol=_DEFAULT_GAIN_TOL, shard=None, threads=1):
    """All sorted grid profiles that are pure equilibria.

    Profiles are canonicalized by sorting (equilibria are reported up to
    renaming the players), so the grid of sorted profiles is searched.
    ``shard=(start, stop)`` restricts the scan to a range of grid indices so
    long runs can be split and resumed; results of disjoint shards union to
    the full answer.  The probe plan refutes profiles in waves of rows (see
    :func:`_refute_rows`), and the exact check decides every profile it
    leaves, so each verdict is that of :func:`is_pne`.  Every chunk of the
    scan logs one DEBUG record of its counts to the ``hotelling_mediators``
    logger.  A non-positive, subnormal or non-finite ``grid_step`` and a
    shard that is no pair of integers ``0 <= start < stop <= total`` raise
    ValueError, as do a ``gain_tol`` that is not a positive finite number
    and ``threads`` that is no integer >= 1.
    """
    gain_tol = _real("gain_tol", gain_tol, 0.0)
    threads = _integer("threads", threads, 1)
    grid_step = _real("grid_step", grid_step, 0.0)
    # A subnormal step has no finite reciprocal to round, and no grid.
    grid_n = round(1.0 / grid_step) if math.isfinite(1.0 / grid_step) else 0
    if abs(grid_n * grid_step - 1.0) > 1e-9 or grid_n < 1:
        raise ValueError(f"1/grid_step must be an integer, got {grid_step!r}")
    # A grid of grid_n steps holds more than grid_n sorted profiles, so one
    # past the budget in grid_n alone is refused before they are counted.
    total = math.comb(grid_n + game.n, game.n) if grid_n < _MAX_PROFILES else math.inf
    if total > _MAX_PROFILES:
        raise ValueError(f"grid_step {grid_step!r} gives over the {_MAX_PROFILES} sorted profiles of the budget")
    # Anything but a pair of integers fails the range test below.
    try:
        start, stop = (0, total) if shard is None else (_integer("shard", v, 0) for v in shard)
    except (TypeError, ValueError):
        start = stop = 0
    if not start < stop <= total:
        raise ValueError(f"shard must be a pair of integers 0 <= start < stop <= {total}, got {shard!r}")
    chunk = stop - start if threads == 1 else max(1, math.ceil((stop - start) / (threads * 8)))
    jobs = [(game, grid_n, a, min(a + chunk, stop), gain_tol) for a in range(start, stop, chunk)]
    found = []
    for job, (part, waves, rows, priced, checked, seconds) in zip(jobs, _pool_map(_enumerate_chunk, jobs, threads)):
        found.extend(part)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "pne_enumerate shard [%d, %d): %d profiles in %.3f s, %d waves, %d rows judged, %d rows priced, "
                "%d checked exactly, %d equilibria found",
                job[2], job[3], job[3] - job[2], seconds, waves, rows, priced, checked, len(part),
            )
    return sorted(set(found))


def known_pne(game):
    """Analytically characterized equilibrium sets, when available.

    Returns a list of profiles, or None when the library does not characterize
    the PNE set of the game (the grid enumerator still applies there).  The
    no-intervention and interval rules are characterized for the uniform
    density only; the dictated targets and the quantile rule's equilibria
    hold under any density.  It is ``game.mediator.known_pne(game.n,
    game.distribution)``, and stays only while ``bench/workloads.py``
    imports it.
    """
    return game.mediator.known_pne(game.n, game.distribution)


@dataclass(frozen=True)
class DynamicsTrace:
    """States visited by better-response dynamics.

    Consecutive states differ in exactly one coordinate and each move
    strictly improved the mover's payoff by more than the gain tolerance.
    """

    states: tuple
    converged: bool
    steps: int


def better_response_dynamics(game, start, max_steps, seed=0, gain_tol=_DEFAULT_GAIN_TOL):
    """Iterate single-player best-candidate moves from ``start``.

    Each step picks one player uniformly at random among those with an
    improving candidate and applies its best candidate, the first with the
    largest gain.  The candidates are the player's entries of the probe plan
    read with ``side=0.0``, then the uniform grid of step 1/100, dynamics'
    own, deduplicated in that order, so moves are restricted to macroscopic
    candidates (opponents, interval endpoints and reflections, reference
    locations, grid): the one-sided offset probes of the plan would produce
    microscopic undercutting steps and no observable convergence.  Each
    state prices every player's candidates as one stream of rows
    (:func:`_price_streams`).  A ``max_steps`` that is no integer >= 1 or a
    ``seed`` that is no integer >= 0 raises ValueError.
    """
    max_steps = _integer("max_steps", max_steps, 1)
    gain_tol = _real("gain_tol", gain_tol, 0.0)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    current = validate_profile(start, game.n)
    states = [current]
    plan = list(_probe_plan(game, side=0.0))
    # Each player's own entries, in plan order, then the grid, split out once.
    grid = [k * 0.01 for k in range(101)]
    plans = [[e for e in plan if e[0] == i] + [(i, 0, 0.0, y) for y in grid] for i in range(game.n)]
    while True:
        base = _payoff_locs(game, current)
        streams = [(i, list(dict.fromkeys(_probe(current, e) for e in own))) for i, own in enumerate(plans)]
        improvers = []
        for player, values in enumerate(_price_streams(game, current, streams)):
            gains = {y: value - base[player] for y, value in values.items()}
            y = max(gains, key=gains.__getitem__)
            if gains[y] > gain_tol:
                improvers.append((player, y))
        # The last state is checked like every other, so a run that ran out
        # of steps on a stable state still counts as converged.
        if not improvers or len(states) > max_steps:
            break
        player, y = improvers[rng.integers(len(improvers))]
        nxt = list(current)
        nxt[player] = y
        current = tuple(nxt)
        states.append(current)
    return DynamicsTrace(states=tuple(states), converged=not improvers, steps=len(states) - 1)


def neutrality_check(game, trials, seed=0, tol=1e-9):
    """Test whether swapping two players' strategies swaps their payoffs.

    Samples random profiles, with coordinates snapped to the game's reference
    locations (dictated targets, odd quantiles) half of the time: the
    dictator rule treats players identically except on the measure-zero set
    of obedient locations, so purely uniform sampling would never exercise
    the asymmetry.  Returns ``(neutral_on_sample, witness)`` where the
    witness is ``(profile, i, j, payoff_i, swapped_payoff_j)``.  ``trials``
    that is no integer >= 1, a ``seed`` that is no integer >= 0 and a ``tol``
    that is no finite real >= 0 raise ValueError.
    """
    trials = _integer("trials", trials, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    tol = _real("tol", tol, 0.0, closed=True)
    n = game.n
    anchors = game.mediator.targets or quantile_locations(n, game.distribution)
    for _ in range(trials):
        coords = rng.random(n)
        snap = rng.random(n) < 0.5
        locs = tuple(anchors[k] if snap[k] else float(coords[k]) for k in range(n))
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        swapped = list(locs)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        pi_i = _payoff_locs(game, locs)[i]
        pj_swapped = _payoff_locs(game, tuple(swapped))[j]
        if abs(pi_i - pj_swapped) > tol:
            return False, (locs, i, j, pi_i, pj_swapped)
    return True, None
