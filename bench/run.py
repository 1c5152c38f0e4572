"""Benchmark of the hotelling_mediators engine.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 bench/run.py --workload query --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``METRICS.md``):

* ``query``     single-profile payoff, social cost, gap and exhaustive
                equilibrium checks;
* ``search``    intervention-cost searches through ``cli.main(["ic", ...])``;
* ``enumerate`` ``pne_enumerate`` over documented grids and grid shards.

The loop is closed, in one process and one thread.  It runs whole rounds of
ops until ``--seconds`` have passed and the workload's minimum number of
rounds has run, so every run measures the same mix of ops; the last round
may end after the deadline.  Every op's output is
checked, and a failed check, a raised exception or a non-zero exit code
counts as a failed op without stopping the run.

End-to-end times are scaled to a reference host speed (see
``host_slowdown``); the record also gives them unscaled.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a separate traced run,
whose spans go to ``.bench_out/``.  The line before it is the full record:
seed, versions, sample counts, quartiles and a digest of every op output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

clock = time.perf_counter

# The host's speed drifts by 20-30% over minutes: a fixed pure-Python loop
# timed in ten 25-second runs spread by 0.22 (quartile distance over
# median).  End-to-end times are therefore divided by the host's current
# slowdown, the time of a fixed piece of interpreter work over
# REFERENCE_S, measured between ops at least every REFERENCE_EVERY_S.
REFERENCE_S = 2.0e-3
REFERENCE_EVERY_S = 0.25

# Set-up is timed in fresh processes, half before and half after the
# measured rounds, so the median spans two moments of the machine's load.
SETUP_REPEATS = 4
SETUP_TIMEOUT_S = 60
# Candidate tail percentiles; the highest one with at least ten samples
# beyond it is reported.
TAIL_PERCENTILES = (50, 75, 90, 99, 99.9)
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5


def _reference_work():
    """Interpreter work like the engine's inner loops (float arithmetic,
    tuples, sorting) that uses nothing from the program under test."""
    pts = [((k * 7919) % 1009) / 1009 for k in range(64)]
    acc = 0.0
    for c in pts:
        ds = sorted((abs(c - p), i) for i, p in enumerate(pts))
        acc += ds[1][0] + 0.5 * (c * c)
    return acc


def host_slowdown():
    """Best of three timings of the reference work, over REFERENCE_S."""
    best = math.inf
    for _ in range(3):
        start = clock()
        _reference_work()
        _reference_work()
        best = min(best, clock() - start)
    return best / REFERENCE_S


def import_program():
    """Import the package from ``src/`` of the current directory.

    Returns the import time of ``hotelling_mediators.cli`` in milliseconds.
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hotelling_mediators", "cli.py")):
        sys.exit("error: src/hotelling_mediators not found; run from the root of a checkout")
    sys.path.insert(0, src)
    start = clock()
    import hotelling_mediators.cli  # noqa: F401

    return 1e3 * (clock() - start)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["query", "search", "enumerate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure_setup(args):
    """Start ``SETUP_REPEATS`` fresh processes, one after another, that set
    up the workload and stop before the first op; returns (wall seconds to
    ready scaled to the reference speed, cli import ms) per process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        slowdown = host_slowdown()
        start = clock()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = clock() - start
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            sys.exit(f"error: set-up process exited with {proc.returncode}")
        out.append((ready / slowdown, json.loads(line)["import_ms"]))
    return out


def run_op(op):
    """Time one op; returns (start, end, output, error text or None)."""
    start = clock()
    try:
        output = op.run()
    except Exception as exc:  # a raised exception is a failed op
        return start, clock(), None, f"{type(exc).__name__}: {exc}"
    end = clock()
    try:
        ok = op.check(output)
    except Exception as exc:
        return start, end, output, f"check raised {type(exc).__name__}: {exc}"
    return start, end, output, None if ok else "check failed"


def measure(workload, first_round, seconds, tracer=None, seed=0):
    """Run whole rounds until ``seconds`` have passed and at least the
    workload's ``min_rounds`` have run (two in a traced run).

    In a traced run, odd rounds are traced and even rounds are not, so the
    tracing overhead is measured on the same mix; at least two rounds run.
    """
    latencies, round_of_op, per_round, slowdowns = [], [], [], []
    raw_time = 0.0
    attempted = failed = 0
    digest, first_digest = hashlib.sha256(), None
    op_id = 0
    ops, r = first_round, 0
    start = clock()
    next_reference = start
    while True:
        traced = tracer is not None and r % 2 == 1
        round_time = round_profiles = 0
        for op in ops:
            if clock() >= next_reference:
                slowdowns.append(host_slowdown())
                next_reference = clock() + REFERENCE_EVERY_S
            op_start, op_end, output, error = run_op(op)
            raw_time += op_end - op_start
            latency = (op_end - op_start) / slowdowns[-1]
            attempted += 1
            latencies.append(latency)
            round_of_op.append(traced)
            round_time += latency
            digest.update(repr(output).encode())
            if error is None:
                round_profiles += op.profiles
            else:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"failed op {op.name} on {op.game}: {error}", file=sys.stderr)
            if traced:
                span = tracer.span("op." + op.name, op_id, None, op_start, op_end)
                if error is None:
                    tracer.replay(op, op_id, span, op_end - op_start, output)
            op_id += 1
        per_round.append((round_time, round_profiles, traced))
        if r == 0:
            first_digest = digest.hexdigest()
        r += 1
        # The minimum rounds fix the tail percentile of untraced runs; a
        # traced run needs one traced and one plain round.
        if clock() - start >= seconds and r >= (2 if tracer else workload.min_rounds):
            break
        ops = workload.round(r)
    if tracer is not None:
        tracer.probe(seed)
        # Every round holds the same kinds of op, so the median op of the
        # traced rounds and that of the plain rounds are comparable.
        plain = [x for x, tr in zip(latencies, round_of_op) if not tr]
        traced = [x for x, tr in zip(latencies, round_of_op) if tr]
        tracer.add("trace.overhead_ratio", statistics.median(traced) / statistics.median(plain))
    return {
        "latencies": latencies,
        "rounds": per_round,
        "slowdowns": slowdowns,
        "raw_time": raw_time,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "first_round_digest": first_digest,
    }


def summary(values, unit, value=None):
    values = list(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": med if value is None else value, "unit": unit, "samples": len(values), "median": med, "q1": q1, "q3": q3}


def tail(latencies, guaranteed):
    """Latency at the highest candidate percentile with >= 10 samples beyond
    it in the ``guaranteed`` number of ops every run makes.

    The percentile depends on the workload alone, not on how many ops a run
    managed, so runs of faster and slower code report the same percentile.
    """
    pct = max((p for p in TAIL_PERCENTILES if guaranteed * (100 - p) / 100 >= TAIL_BEYOND), default=50)
    if len(latencies) < 2:
        return pct, latencies[0]
    # Same interpolation as the median the other metrics report.
    return pct, statistics.quantiles(latencies, n=1000)[round(10 * pct) - 1]


def end_to_end(result, setup, guaranteed):
    lat_ms = [1e3 * x for x in result["latencies"]]
    rounds = result["rounds"]
    total_time = sum(t for t, _, _ in rounds)
    total_profiles = sum(p for _, p, _ in rounds)
    pct, tail_ms = tail(lat_ms, guaranteed)
    oks = [1.0] * (result["attempted"] - result["failed"]) + [0.0] * result["failed"]
    metrics = {
        "setup_s": summary([s for s, _ in setup], "s"),
        "profiles_per_s": summary([p / t for t, p, _ in rounds], "1/s", total_profiles / total_time),
        "op_p50_ms": summary(lat_ms, "ms"),
        "op_tail_ms": dict(summary(lat_ms, "ms", tail_ms), percentile=pct),
        "ok_rate": summary(oks, "ratio", statistics.mean(oks)),
        "peak_rss_mb": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
    }
    return metrics


def per_layer(tracer, setup, units):
    tracer.samples["cli.import_ms"] = [ms for _, ms in setup]
    return {name: summary(tracer.samples[name], unit) for name, unit in units.items()}


def git_sha():
    """HEAD of the checkout's git repository, when there is one."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        with open(os.path.join(".git", ref)) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    args = parse_args(argv)
    import_ms = import_program()
    import numpy as np
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first_round = workload.round(0)
    if args.setup_only:
        print(json.dumps({"import_ms": import_ms}), flush=True)
        return 0

    setup = measure_setup(args)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
    result = measure(workload, first_round, args.seconds, tracer, args.seed)
    setup += measure_setup(args)
    if tracer:
        metrics = per_layer(tracer, setup, layers.UNITS)
        tracer.write(os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = end_to_end(result, setup, workload.min_rounds * len(first_round))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(result["rounds"]),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": metrics,
        "host_slowdown": summary(result["slowdowns"], "ratio"),
        "unscaled_profiles_per_s": sum(p for _, p, _ in result["rounds"]) / result["raw_time"],
        "output_digest": result["digest"],
        "first_round_digest": result["first_round_digest"],
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
