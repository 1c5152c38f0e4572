"""Traced run: spans around every op, and per-layer replays of its inputs.

Spans are kept in memory as ``(id, parent, op, name, start, end)`` and
written out when the run ends.  After an op's own timed call, its inputs are
replayed through the public functions of each lower layer, every call in a
child span of the op:

* ``core``: the density's ``cdf``, ``mass`` and ``abs_moment`` on the
  compiled pieces of the op's profiles;
* ``mediators``: ``compile_policy`` and ``direct``;
* ``metrics``: ``payoff``, ``social_cost``, ``intervention_gap`` and, for
  searches, ``ic_search``;
* ``equilibrium``: ``is_pne`` (exhaustive and early-exit) and
  ``pne_enumerate`` shards;
* ``cli``: ``main`` against the direct call on identical arguments.

Search and equilibrium metrics a workload's ops never produce are measured
once at the end by probes on that workload's own games and profiles, so
every traced run reports every per-layer metric.  Counting evaluations inside the program
is left to the program's own stats.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import numpy as np
from hotelling_mediators import (
    compile_policy,
    direct,
    ic_search,
    intervention_gap,
    is_pne,
    payoff,
    pne_enumerate,
    social_cost,
)

from workloads import CLIME3_GRID, SEARCH_BUDGET, SHARD_SIZE, capture_cli, grid_total

clock = time.perf_counter

# Per-layer metrics with their units, in the order they are reported.
UNITS = {
    "core.cdf_us": "us",
    "core.mass_us": "us",
    "core.abs_moment_us": "us",
    "core.calls_per_profile": "count",
    "mediators.compile_us": "us",
    "mediators.direct_us": "us",
    "mediators.breakpoints_per_profile": "count",
    "mediators.pieces_per_profile": "count",
    "mediators.piece_yield": "ratio",
    "metrics.payoff_us": "us",
    "metrics.social_cost_us": "us",
    "metrics.gap_us": "us",
    "metrics.integrate_us": "us",
    "metrics.ic_search_s": "s",
    "metrics.ic_random_share": "ratio",
    "equilibrium.is_pne_ms": "ms",
    "equilibrium.candidates_per_profile": "count",
    "equilibrium.candidate_us": "us",
    "equilibrium.refute_us": "us",
    "equilibrium.shard_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Exhaustive certifications and games the end-of-run probes use.
PROBE_PROFILES = 6
PROBE_GAMES = 2
# Gap evaluations timed back to back to price one profile of a search's
# random phase; a single cold call overstates it.
RANDOM_PHASE_SAMPLE = 32


class Tracer:
    def __init__(self):
        self.spans = []
        self.samples = defaultdict(list)
        # First profile replayed for each game, in order of first use.
        self.seen = {}

    def span(self, name, op_id, parent, start, end):
        self.spans.append((len(self.spans), parent, op_id, name, start, end))
        return len(self.spans) - 1

    def call(self, name, op_id, parent, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        end = clock()
        self.span(name, op_id, parent, start, end)
        return out, end - start

    def add(self, metric, value):
        self.samples[metric].append(value)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"], "spans": self.spans}, fh)

    def _per_call(self, name, op_id, parent, calls):
        """Time a batch of calls to one function; returns seconds per call."""
        _, elapsed = self.call(name, op_id, parent, lambda: [fn(*args) for fn, args in calls])
        return elapsed / len(calls)

    def _certification(self, report, seconds):
        self.add("equilibrium.is_pne_ms", 1e3 * seconds)
        self.add("equilibrium.candidates_per_profile", report.candidate_count)
        self.add("equilibrium.candidate_us", 1e6 * seconds / report.candidate_count)

    def _search(self, op_id, parent, game, budget, seed):
        """Time ``ic_search`` and the gap evaluations of its first random
        profiles; returns the search time."""
        rows = np.random.default_rng(seed).random((RANDOM_PHASE_SAMPLE, game.n))
        gaps = [(intervention_gap, (game, tuple(map(float, row)))) for row in rows]
        gap_s = self._per_call("metrics.random_phase", op_id, parent, gaps)
        _, search_s = self.call("metrics.ic_search", op_id, parent, ic_search, game, budget=budget, seed=seed)
        self.add("metrics.ic_search_s", search_s)
        self.add("metrics.ic_random_share", budget * gap_s / search_s)
        return search_s

    def replay_item(self, op_id, parent, game, profile):
        """Push one (game, profile) through core, mediators, metrics and the
        early-exit equilibrium check."""
        policy, compile_s = self.call("mediators.compile_policy", op_id, parent, compile_policy, game, profile, False)
        breakpoints = len(compile_policy(game, profile).point_dists)
        pieces = policy.pieces
        dist = game.distribution
        cdfs = [(dist.cdf, (b,)) for b in policy.breakpoints]
        masses = [(dist.mass, (lo, hi)) for lo, hi, _ in pieces]
        moments = [(dist.abs_moment, (profile[i], lo, hi)) for lo, hi, w in pieces for i, wi in enumerate(w) if wi]
        self.add("core.cdf_us", 1e6 * self._per_call("core.cdf", op_id, parent, cdfs))
        self.add("core.mass_us", 1e6 * self._per_call("core.mass", op_id, parent, masses))
        self.add("core.abs_moment_us", 1e6 * self._per_call("core.abs_moment", op_id, parent, moments))
        self.add("core.calls_per_profile", len(masses) + len(moments))
        mids = [(direct, (game, profile, 0.5 * (lo + hi))) for lo, hi, _ in pieces]
        self.add("mediators.direct_us", 1e6 * self._per_call("mediators.direct", op_id, parent, mids))
        self.add("mediators.compile_us", 1e6 * compile_s)
        self.add("mediators.breakpoints_per_profile", breakpoints)
        self.add("mediators.pieces_per_profile", len(pieces))
        self.add("mediators.piece_yield", len(pieces) / breakpoints)
        _, payoff_s = self.call("metrics.payoff", op_id, parent, payoff, game, profile)
        _, cost_s = self.call("metrics.social_cost", op_id, parent, social_cost, game, profile)
        _, gap_s = self.call("metrics.intervention_gap", op_id, parent, intervention_gap, game, profile)
        self.add("metrics.payoff_us", 1e6 * payoff_s)
        self.add("metrics.social_cost_us", 1e6 * cost_s)
        self.add("metrics.gap_us", 1e6 * gap_s)
        # Derived: integration is what payoff spends beyond compiling.
        self.add("metrics.integrate_us", 1e6 * (payoff_s - compile_s))
        # Only the time of an early-exit check is used: its candidate_count
        # is an estimate, not the number of candidates probed.
        _, refute_s = self.call("equilibrium.is_pne_fast", op_id, parent, is_pne, game, profile, exhaustive=False)
        self.add("equilibrium.refute_us", 1e6 * refute_s)

    def replay(self, op, op_id, parent, latency, output):
        """Replay one op's inputs through the layers below it."""
        for game, profile in op.items():
            self.replay_item(op_id, parent, game, profile)
            self.seen.setdefault(game, profile)
        if op.name == "pne":
            self._certification(output, latency)
        elif op.name == "shard":
            self.add("equilibrium.shard_ms", 1e3 * latency)
        if op.cli is None:
            return
        if op.name == "ic":
            main_s = latency
        else:
            _, main_s = self.call("cli.main", op_id, parent, capture_cli, op.cli)
        if op.name == "ic":
            twin_s = self._search(op_id, parent, op.game, op.budget, op.seed)
        elif op.twin is None:
            twin_s = latency
        else:
            _, twin_s = self.call("cli.twin", op_id, parent, op.twin)
        self.add("cli.main_ms", 1e3 * main_s)
        self.add("cli.overhead_ms", 1e3 * (main_s - twin_s))

    def probe(self, seed):
        """Measure, on the workload's own inputs, the search and equilibrium
        metrics its ops lack."""
        if not self.samples["equilibrium.is_pne_ms"]:
            for game, profile in list(self.seen.items())[:PROBE_PROFILES]:
                report, seconds = self.call("probe.is_pne", None, None, is_pne, game, profile)
                self._certification(report, seconds)
        # Every workload has n=2 games, so the smallest games have a small grid.
        games = sorted(self.seen, key=lambda g: g.n)[:PROBE_GAMES]
        if not self.samples["metrics.ic_search_s"]:
            for game in games:
                self._search(None, None, game, SEARCH_BUDGET, seed)
        if not self.samples["equilibrium.shard_ms"]:
            for game in games:
                start = seed % (grid_total(game, CLIME3_GRID) - SHARD_SIZE)
                shard = (start, start + SHARD_SIZE)
                _, seconds = self.call(
                    "probe.pne_enumerate", None, None, pne_enumerate, game, 1 / CLIME3_GRID, shard=shard, threads=1
                )
                self.add("equilibrium.shard_ms", 1e3 * seconds)
