"""The benchmark's three workloads and their per-op output checks.

Every workload is a closed loop of ops in one process and one thread: the
next op starts when the previous one has returned and its output has been
checked.  Ops come in rounds.  A round has a fixed composition (which
mediators, sizes and densities it touches, in what proportion), and only its
random inputs change with the seed and the round index, so any number of
whole rounds measures the same mix.

An op records the inputs the traced run replays through the lower layers:
``items()`` gives (game, profile) pairs for the point layers, and ``twin`` /
``cli`` describe the matching direct-API and command-line calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from typing import Callable

import numpy as np

from hotelling_mediators import (
    Clime,
    Dictator,
    GameSpec,
    Glime,
    Lime,
    Nime,
    PiecewiseLinearDensity,
    UNIFORM,
    intervention_gap,
    is_pne,
    known_pne,
    optimal_locations,
    payoff,
    pne_enumerate,
    quantile_locations,
    social_cost,
)
from hotelling_mediators.cli import main as cli_main

RAMP = PiecewiseLinearDensity((0.0, 1.0), (0.0, 2.0))
# Four linear segments, so cdf and moments cross breakpoints inside pieces.
ZIGZAG = PiecewiseLinearDensity((0.0, 0.25, 0.5, 0.75, 1.0), (0.5, 1.5, 0.5, 1.5, 0.5))

# Tolerances of the acceptance suite (criteria 2, 5 and 6).
SUM_TOL = 1e-9
GAP_TOL = -1e-9
SEARCH_LOWER_SLACK = 5e-3
SEARCH_UPPER_SLACK = 1e-9
# Criterion 5 samples non-equilibria at least this far from the optimum.
PNE_FALSE_DISTANCE = 0.02

SEARCH_BUDGET = 1500
SEARCH_NS = range(2, 9)
SHARD_SIZE = 250
SHARD_STRATA = 64
CLIME3_LAMS = (1 / 12, 1 / 10)
CLIME3_GRID = 120


def clime_lambda(n):
    """A half-width valid for every n >= 2: 1/8 where allowed, else 1/(2n)."""
    return min(1 / 8, 1 / (2 * n))


def mediators_for(n):
    return (Nime(), Dictator(), Lime(), Glime(), Clime(lam=clime_lambda(n)))


@dataclass
class Op:
    """One timed request: ``run()`` returns the output ``check`` judges."""

    name: str
    profiles: int
    run: Callable[[], object]
    check: Callable[[object], bool]
    # Built only when the traced run asks, so untraced runs skip the work.
    items: Callable[[], list] = list
    # Command line the traced run times against ``twin``, the matching
    # direct-API call; a missing twin means the op itself is that call.  An
    # "ic" op is the command line itself, and its twin is ``ic_search`` on
    # ``game``, ``budget`` and ``seed``.
    twin: Callable[[], object] | None = None
    cli: list | None = None
    game: GameSpec | None = None
    budget: int = 0
    seed: int = 0


def capture_cli(argv):
    """Run the command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code or 0, out.getvalue()


def game_flags(game):
    """Command-line flags that rebuild a uniform-density game."""
    m = game.mediator
    argv = ["--mediator", m.kind, "--n", str(game.n)]
    if isinstance(m, (Lime, Glime, Clime)):
        argv += ["--epsilon", repr(m.epsilon)]
    if isinstance(m, Clime):
        argv += ["--lambda", repr(m.lam)]
    return argv


def snapped_profile(rng, game):
    """Random profile with each coordinate snapped, with probability 1/2,
    onto its reference location, as ``neutrality_check`` samples them, so
    that the dictator's obey branch and interval endpoints are exercised."""
    n = game.n
    m = game.mediator
    anchors = m.targets if isinstance(m, Dictator) else quantile_locations(n, game.distribution)
    coords = rng.random(n)
    snap = rng.random(n) < 0.5
    return tuple(float(anchors[k]) if snap[k] else float(coords[k]) for k in range(n))


def _round_rng(seed, r):
    return np.random.default_rng([seed, r])


# ---------------------------------------------------------------------------
# query: one profile per request
# ---------------------------------------------------------------------------


def point_op(game, profile, name="point"):
    def run():
        return payoff(game, profile), social_cost(game, profile), intervention_gap(game, profile)

    def check(out):
        values, _, gap = out
        return abs(sum(values) - 1.0) <= SUM_TOL and gap >= GAP_TOL

    op = Op(name, 1, run, check, items=lambda: [(game, profile)], game=game)
    if game.distribution is UNIFORM:
        op.cli = ["payoff", *game_flags(game), "--profile", ",".join(map(repr, profile)), "--format", "json"]
        op.twin = lambda: payoff(game, profile)
    return op


def pne_op(game, profile, expected):
    def run():
        return is_pne(game, profile)

    def check(report):
        return report.is_pne == expected

    return Op("pne", 1, run, check, items=lambda: [(game, profile)], game=game)


class Query:
    """Single-profile requests, as the ``payoff``, ``social-cost`` and
    ``pne --profile`` commands serve them.

    A round holds, per mediator and n = 2..6, two uniform and two
    piecewise-linear point evaluations (ramp and zigzag); one point
    evaluation each at n = 16 and n = 32; one exhaustive certification of a
    documented equilibrium and one of a random profile that is not one.
    """

    # 104 ops a round: at least 10,400 ops, so p99.9 has 10 beyond it.
    min_rounds = 100

    def __init__(self, seed):
        self.seed = seed
        self.small = [
            GameSpec(n, m, dist)
            for n in range(2, 7)
            for m in mediators_for(n)
            for dist in (UNIFORM, UNIFORM, RAMP, ZIGZAG)
        ]
        self.large = {
            n: [GameSpec(n, m, dist) for m in mediators_for(n) for dist in (UNIFORM, RAMP, ZIGZAG)]
            for n in (16, 32)
        }
        self.equilibria = self._equilibria()
        self.lime = {n: GameSpec(n, Lime()) for n in range(3, 7)}

    @staticmethod
    def _equilibria():
        """Profiles whose exhaustive verdict must be true: ``known_pne`` on
        uniform games, the density-aware dictator and quantile rules under
        both piecewise-linear densities, and the criterion-13 fixtures."""
        out = []
        for n in range(2, 7):
            for m in mediators_for(n):
                game = GameSpec(n, m)
                out += [(game, p) for p in known_pne(game) or ()]
            for dist in (RAMP, ZIGZAG):
                for m in (Dictator(), Glime()):
                    game = GameSpec(n, m, dist)
                    out += [(game, p) for p in known_pne(game) or ()]
        for profile in (
            (0.25, 0.25, 0.75, 0.75),
            (1 / 6, 1 / 6, 0.5, 5 / 6, 5 / 6),
            (1 / 6, 1 / 6, 0.5, 0.5, 5 / 6, 5 / 6),
        ):
            out.append((GameSpec(len(profile), Nime()), profile))
        return out

    def _non_equilibrium(self, rng, game):
        opt = optimal_locations(game.n)
        while True:
            profile = snapped_profile(rng, game)
            if max(abs(a - b) for a, b in zip(sorted(profile), opt)) >= PNE_FALSE_DISTANCE:
                return profile

    def round(self, r):
        rng = _round_rng(self.seed, r)
        ops = [point_op(g, snapped_profile(rng, g)) for g in self.small]
        for k, (n, games) in enumerate(self.large.items()):
            game = games[(r + 7 * k) % len(games)]
            ops.append(point_op(game, snapped_profile(rng, game), "point_large"))
        game, profile = self.equilibria[r % len(self.equilibria)]
        ops.append(pne_op(game, profile, True))
        game = self.lime[3 + r % 4]
        ops.append(pne_op(game, self._non_equilibrium(rng, game), False))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# search: intervention-cost search through the command line
# ---------------------------------------------------------------------------


def search_op(game, budget, seed):
    argv = ["ic", *game_flags(game), "--budget", str(budget), "--seed", str(seed), "--format", "json"]

    def run():
        return capture_cli(argv)

    def check(out):
        code, text = out
        if code != 0:
            return False
        est = json.loads(text)
        value = est["searchLower"]
        lower, upper, fixture = est["analyticLower"], est["analyticUpper"], est["fixtureLower"]
        return (
            (lower is None or value >= lower - SEARCH_LOWER_SLACK)
            and (upper is None or value <= upper + SEARCH_UPPER_SLACK)
            and (fixture is None or value >= fixture)
        )

    def items():
        # The first random profiles ic_search draws from this seed.
        rows = np.random.default_rng(seed).random((4, game.n))
        return [(game, tuple(map(float, row))) for row in rows]

    return Op(
        "ic",
        budget,
        run,
        check,
        items=items,
        cli=argv,
        game=game,
        budget=budget,
        seed=seed,
    )


class Search:
    """Intervention-cost searches, ``ic --format json`` run in-process.

    A round is one search per cell of {dict, lime, glime, clime} x n = 2..8
    at a fixed budget, each with its own seed drawn from the benchmark seed.
    """

    # 28 ops a round: at least 56 ops, so p75 has 10 beyond it.
    min_rounds = 2

    def __init__(self, seed):
        self.seed = seed
        self.games = [
            GameSpec(n, m) for n in SEARCH_NS for m in (Dictator(), Lime(), Glime(), Clime(lam=clime_lambda(n)))
        ]

    def round(self, r):
        rng = _round_rng(self.seed, r)
        ops = [search_op(g, SEARCH_BUDGET, int(rng.integers(2**31))) for g in self.games]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# enumerate: grid scans with early-exit refutation
# ---------------------------------------------------------------------------


def grid_total(game, grid_n):
    return math.comb(grid_n + game.n, game.n)


def grid_items(game, grid_n, start, count):
    """(game, profile) pairs for the first ``count`` sorted grid profiles from ``start``."""
    combos = islice(combinations_with_replacement(range(grid_n + 1), game.n), start, start + count)
    return [(game, tuple(k / grid_n for k in combo)) for combo in combos]


def shard_op(game, grid_n, start, stop):
    """A shard of a grid whose documented answer is empty.

    The shard is validated before the call: ``pne_enumerate`` returns ``[]``
    for an inverted or out-of-range shard without scanning anything, which
    would pass the check vacuously.
    """
    valid = 0 <= start < stop <= grid_total(game, grid_n)

    def run():
        if not valid:
            raise ValueError(f"invalid shard ({start}, {stop}) of {grid_total(game, grid_n)} profiles")
        return pne_enumerate(game, 1 / grid_n, shard=(start, stop), threads=1)

    return Op(
        "shard",
        stop - start if valid else 0,
        run,
        lambda found: found == [],
        items=(lambda: grid_items(game, grid_n, start, 4)) if valid else list,
        game=game,
    )


def grid_op(game, grid_n, expected):
    """A full documented grid with a non-empty answer."""
    argv = ["pne", *game_flags(game), "--enumerate", "--grid-step", repr(1 / grid_n), "--format", "json"]

    def run():
        return pne_enumerate(game, 1 / grid_n, threads=1)

    return Op(
        "grid",
        grid_total(game, grid_n),
        run,
        lambda found: found == expected,
        items=lambda: grid_items(game, grid_n, 0, 4),
        cli=argv,
        game=game,
    )


class Enumerate:
    """Equilibrium enumeration with ``pne_enumerate(threads=1)``.

    A round scans the full criterion-7 grid (n=2 Lime at 1/64) and both
    criterion-10 grids (n=2 Clime at 1/80), and one shard per stratum of
    each criterion-11 grid (n=3 Clime, lambda 1/12 and 1/10, step 1/120).
    Offsets are drawn within equal strata so every round covers the whole
    grid: the cost per profile differs tenfold between grid regions, and
    fine strata keep the median op of a run from depending on the seed.
    """

    # 131 ops a round: at least 393 ops, so p90 has 10 beyond it.
    min_rounds = 3

    def __init__(self, seed):
        self.seed = seed
        self.clime3 = [GameSpec(3, Clime(lam=lam, epsilon=1e-3)) for lam in CLIME3_LAMS]
        lime2 = GameSpec(2, Lime(epsilon=1e-3))
        self.grids = [(lime2, 64, [(0.25, 0.25), (0.25, 0.75), (0.75, 0.75)])]
        for lam in (1 / 8, 1 / 4):
            a, b = 0.5 - lam, 0.5 + lam
            self.grids.append((GameSpec(2, Clime(lam=lam, epsilon=1e-12)), 80, [(a, a), (a, b), (b, b)]))

    def round(self, r):
        rng = _round_rng(self.seed, r)
        ops = [grid_op(*grid) for grid in self.grids]
        for game in self.clime3:
            total = grid_total(game, CLIME3_GRID)
            width = total // SHARD_STRATA
            for k in range(SHARD_STRATA):
                start = k * width + int(rng.integers(width - SHARD_SIZE + 1))
                ops.append(shard_op(game, CLIME3_GRID, start, start + SHARD_SIZE))
        rng.shuffle(ops)
        return ops


WORKLOADS = {"query": Query, "search": Search, "enumerate": Enumerate}
