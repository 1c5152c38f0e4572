"""Pure Nash equilibrium verification, enumeration, and related diagnostics.

Deviations live in a continuum, so equilibrium checks here are certificates
relative to a finite candidate set rather than proofs.  The candidate set is
chosen where a single player's payoff can change shape: at opponent
locations (with one-sided offsets standing in for one-sided limits), at
protected-interval endpoints and the reflections of opponents through them,
at the distribution's reference locations, and on a uniform grid.  Every report
carries the resolution it was certified at.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

import numpy as np

from .core import (
    UNIFORM,
    Clime,
    Dictator,
    Glime,
    Lime,
    Nime,
    optimal_locations,
    quantile_locations,
    validate_profile,
)
from .mediators import _game_piis
from .metrics import _payoff_locs

__all__ = [
    "candidate_deviations",
    "best_response_gain",
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
_DEFAULT_GRID_POINTS = 101

# Enumeration refuses grids with more sorted profiles than this.
_MAX_GRID_PROFILES = 10**8


def _static_candidates(game, grid_points, include_offsets=True):
    """Profile-independent part of the candidate set, in probe order."""
    pts = []
    for lo, hi in _game_piis(game):
        for e in (lo, hi):
            pts.append(e)
            if include_offsets:
                pts.append(e - _SIDE_DELTA)
                pts.append(e + _SIDE_DELTA)
    pts.extend(quantile_locations(game.n, game.distribution))
    if isinstance(game.mediator, Dictator):
        pts.extend(game.mediator.targets)
    pts.append(0.0)
    pts.append(1.0)
    if grid_points >= 2:
        step = 1.0 / (grid_points - 1)
        pts.extend(k * step for k in range(grid_points))
    return [min(max(p, 0.0), 1.0) for p in pts]


def _opponent_candidates(game, locs, player, include_offsets=True):
    """Candidates tied to the opponents of ``player``: the locations
    themselves, one-sided offsets, and their reflections through the
    protected-interval endpoints (where a moving basin boundary can change
    slope)."""
    pts = []
    opponents = [locs[j] for j in range(len(locs)) if j != player]
    for z in opponents:
        if include_offsets:
            pts.append(z - _SIDE_DELTA)
            pts.append(z + _SIDE_DELTA)
        pts.append(z)
    for lo, hi in _game_piis(game):
        for e in (lo, hi):
            for z in opponents:
                pts.append(2.0 * e - z)
    return [min(max(p, 0.0), 1.0) for p in pts]


def candidate_deviations(game, profile, player, grid_points=_DEFAULT_GRID_POINTS):
    """Finite certificate set of deviation locations for one player.

    Union of opponent locations and one-sided offsets, protected-interval
    endpoints and offsets, reflections of opponents through those endpoints,
    the distribution's reference locations (plus dictated targets), the
    segment ends, and a uniform grid of ``grid_points``; clipped to [0, 1]
    and deduplicated, ordered so that the historically strongest probes come
    first.
    """
    locs = validate_profile(profile, game.n)
    if not 0 <= player < game.n:
        raise ValueError(f"player index {player} out of range")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    pts = _opponent_candidates(game, locs, player)
    pts.extend(_static_candidates(game, grid_points))
    return list(dict.fromkeys(pts))


def best_response_gain(game, profile, player, candidates):
    """Best payoff improvement of ``player`` over the candidate deviations.

    Returns ``(gain, argmax)``; the gain may be negative when no candidate
    beats the current location.
    """
    locs = validate_profile(profile, game.n)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate deviation")
    base = _payoff_locs(game, locs)[player]
    best_gain, best_y = -math.inf, None
    trial = list(locs)
    for y in candidates:
        trial[player] = y
        value = _payoff_locs(game, tuple(trial))[player]
        if value - base > best_gain:
            best_gain, best_y = value - base, y
    return best_gain, best_y


@dataclass(frozen=True)
class PneReport:
    """Equilibrium verdict at a stated certification level.

    ``is_pne`` means no candidate deviation improved any player's payoff by
    more than ``gain_tol``; it is not a proof over the continuum.  When the
    verdict is negative, ``witness`` holds one beneficial deviation.
    """

    is_pne: bool
    worst_gain: float
    witness: tuple | None
    candidate_count: int
    gain_tol: float
    grid_step: float

    def to_json(self):
        return {
            "isPne": self.is_pne,
            "worstGain": self.worst_gain,
            "witness": None
            if self.witness is None
            else {"player": self.witness[0], "deviation": self.witness[1]},
            "candidateCount": self.candidate_count,
            "gainTol": self.gain_tol,
            "gridStep": self.grid_step,
        }


def is_pne(
    game,
    profile,
    gain_tol=_DEFAULT_GAIN_TOL,
    grid_points=_DEFAULT_GRID_POINTS,
    exhaustive=True,
):
    """Certify a profile against the candidate deviations of every player.

    With ``exhaustive=False`` the scan stops at the first beneficial
    deviation; ``worst_gain`` is then the gain found rather than the maximum,
    which is all a refutation needs.
    """
    if gain_tol <= 0.0:
        raise ValueError("gain_tol must be positive")
    locs = validate_profile(profile, game.n)
    worst_gain, witness, count = -math.inf, None, 0
    if not exhaustive:
        static_pts = _static_candidates(game, grid_points)
        hit = _refute_fast(game, locs, gain_tol, static_pts)
        count = game.n * (len(static_pts) + 5 * (game.n - 1))
        if hit is not None:
            player, y = hit
            trial = list(locs)
            trial[player] = y
            worst_gain = _payoff_locs(game, tuple(trial))[player] - _payoff_locs(game, locs)[player]
            witness = (player, y)
    else:
        for player in range(game.n):
            candidates = candidate_deviations(game, locs, player, grid_points)
            count += len(candidates)
            gain, y = best_response_gain(game, locs, player, candidates)
            if gain > worst_gain:
                worst_gain = gain
                if gain > gain_tol:
                    witness = (player, y)
    ok = worst_gain <= gain_tol
    return PneReport(
        is_pne=ok,
        worst_gain=worst_gain,
        witness=None if ok else witness,
        candidate_count=count,
        gain_tol=gain_tol,
        grid_step=1.0 / (grid_points - 1),
    )


def _refute_fast(game, locs, gain_tol, static_pts):
    """Early-exit equilibrium check used by enumeration.

    Returns None when no candidate beats the profile, otherwise the first
    witness found.  Probes every player's opponent-derived candidates (the
    historically strongest refutations) before anyone's grid candidates, and
    skips deduplication: a duplicate only costs one redundant evaluation.
    """
    base = _payoff_locs(game, locs)
    n = len(locs)
    trial = list(locs)
    for player in range(n):
        threshold = base[player] + gain_tol
        for y in _opponent_candidates(game, locs, player):
            trial[player] = y
            if _payoff_locs(game, tuple(trial))[player] > threshold:
                return player, y
        trial[player] = locs[player]
    for player in range(n):
        threshold = base[player] + gain_tol
        for y in static_pts:
            trial[player] = y
            if _payoff_locs(game, tuple(trial))[player] > threshold:
                return player, y
        trial[player] = locs[player]
    return None


def _enumerate_chunk(args):
    game, grid_n, start, stop, gain_tol, grid_points = args
    static_pts = _static_candidates(game, grid_points)
    combos = islice(
        combinations_with_replacement(range(grid_n + 1), game.n), start, stop
    )
    found = []
    for combo in combos:
        locs = tuple(k / grid_n for k in combo)
        if _refute_fast(game, locs, gain_tol, static_pts) is None:
            found.append(locs)
    return found


def pne_enumerate(
    game,
    grid_step,
    gain_tol=_DEFAULT_GAIN_TOL,
    grid_points=_DEFAULT_GRID_POINTS,
    shard=None,
    threads=1,
):
    """All sorted grid profiles that pass the candidate certification.

    Profiles are canonicalized by sorting (equilibria are reported up to
    renaming the players), so the grid of sorted profiles is searched.
    ``shard=(start, stop)`` restricts the scan to a range of grid indices so
    long runs can be split and resumed; results of disjoint shards union to
    the full answer.  A non-positive or non-finite ``grid_step`` and a shard
    outside ``0 <= start < stop <= total`` raise ValueError.
    """
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise ValueError(f"grid_step must be a positive finite number, got {grid_step!r}")
    grid_n = round(1.0 / grid_step)
    if abs(grid_n * grid_step - 1.0) > 1e-9 or grid_n < 1:
        raise ValueError(f"1/grid_step must be an integer, got {grid_step!r}")
    total = math.comb(grid_n + game.n, game.n)
    if total > _MAX_GRID_PROFILES:
        raise ValueError(
            f"grid holds {total} sorted profiles, over the {_MAX_GRID_PROFILES} budget"
        )
    start, stop = (0, total) if shard is None else shard
    if not 0 <= start < stop <= total:
        raise ValueError(f"shard must satisfy 0 <= start < stop <= {total}, got {shard!r}")
    if threads > 1:
        span = stop - start
        chunk = max(1, math.ceil(span / (threads * 8)))
        jobs = [
            (game, grid_n, a, min(a + chunk, stop), gain_tol, grid_points)
            for a in range(start, stop, chunk)
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_enumerate_chunk, jobs))
        found = [locs for part in parts for locs in part]
    else:
        found = _enumerate_chunk((game, grid_n, start, stop, gain_tol, grid_points))
    return sorted(set(found))


def known_pne(game):
    """Analytically characterized equilibrium sets, when available.

    Returns a list of profiles, or None when the library does not characterize
    the PNE set of the game (the grid enumerator still applies there).  The
    no-intervention and interval rules are characterized for the uniform
    density only; the dictated targets and the quantile rule's equilibria
    hold under any density.
    """
    m = game.mediator
    n = game.n
    if isinstance(m, Dictator):
        return [tuple(m.targets)]
    if isinstance(m, Glime) and n >= 3:
        return [quantile_locations(n, game.distribution)]
    if game.distribution != UNIFORM:
        return None
    if isinstance(m, Lime):
        if n >= 3:
            return [optimal_locations(n)]
        a, b = 0.25, 0.75
        return [(a, a), (a, b), (b, a), (b, b)]
    if isinstance(m, Clime) and n == 2:
        a, b = 0.5 - m.lam, 0.5 + m.lam
        return [(a, a), (a, b), (b, a), (b, b)]
    if isinstance(m, Nime) and n == 2:
        return [(0.5, 0.5)]
    return None


@dataclass(frozen=True)
class DynamicsTrace:
    """States visited by better-response dynamics.

    Consecutive states differ in exactly one coordinate and each move
    strictly improved the mover's payoff by more than the gain tolerance.
    """

    states: tuple
    converged: bool
    steps: int


def better_response_dynamics(
    game,
    start,
    max_steps,
    seed=0,
    gain_tol=_DEFAULT_GAIN_TOL,
    grid_points=_DEFAULT_GRID_POINTS,
):
    """Iterate single-player best-candidate moves from ``start``.

    Each step picks one player uniformly at random among those with an
    improving candidate and applies her best candidate.  Moves are restricted
    to macroscopic candidates (grid, opponents, reference locations, interval
    endpoints): the one-sided offset probes used for certification would
    produce microscopic undercutting steps and no observable convergence.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    rng = np.random.default_rng(seed)
    current = validate_profile(start, game.n)
    states = [current]
    static_pts = _static_candidates(game, grid_points, include_offsets=False)
    converged = False
    for _ in range(max_steps):
        improvers = []
        for player in range(game.n):
            pts = _opponent_candidates(game, current, player, include_offsets=False)
            pts.extend(static_pts)
            gain, y = best_response_gain(game, current, player, pts)
            if gain > gain_tol:
                improvers.append((player, y))
        if not improvers:
            converged = True
            break
        player, y = improvers[rng.integers(len(improvers))]
        nxt = list(current)
        nxt[player] = y
        current = tuple(nxt)
        states.append(current)
    else:
        # Ran out of steps; check whether the final state is stable anyway.
        converged = all(
            best_response_gain(
                game,
                current,
                p,
                _opponent_candidates(game, current, p, include_offsets=False)
                + static_pts,
            )[0]
            <= gain_tol
            for p in range(game.n)
        )
    return DynamicsTrace(states=tuple(states), converged=converged, steps=len(states) - 1)


def neutrality_check(game, trials, seed=0, tol=1e-9):
    """Test whether swapping two players' strategies swaps their payoffs.

    Samples random profiles, with coordinates snapped to the game's reference
    locations (dictated targets, odd quantiles) half of the time: the
    dictator rule treats players identically except on the measure-zero set
    of obedient locations, so purely uniform sampling would never exercise
    the asymmetry.  Returns ``(neutral_on_sample, witness)`` where the
    witness is ``(profile, i, j, payoff_i, swapped_payoff_j)``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    n = game.n
    if isinstance(game.mediator, Dictator):
        anchors = game.mediator.targets
    else:
        anchors = quantile_locations(n, game.distribution)
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
