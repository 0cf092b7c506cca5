#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload do-1d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats whole rounds of the workload (the same seeded
inputs each round) until the next round would end after ``--seconds``, and
at least ``MIN_ROUNDS`` rounds.  Every solver output is checked; an op that
raises or fails its check counts in ``failed``.  The last line of standard
output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``solve_s``, ``iterations``, ``peak_rss_mb``); with ``--trace 1`` the rounds
alternate between untraced and traced and the metrics are per layer.  Result
and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("do-1d", "fp-1d", "blotto-lattice", "blotto-milp")
SETUP_PROBES = 3
# Rounds every run makes even past --seconds, so that the median drops the
# first round (up to 20 % slower than the rest on fp-1d) and a run that
# happens to be slow still reports a median of several rounds.
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120

# The benchmark measures one single-threaded process; set before numpy loads
# (the set-up probes inherit it).
for _pool in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"

# Each metric name with the span name whose self time it reports.  Leaf
# layers have no wrapped children, so their inclusive time is their self time.
SELF_TIMES = {
    "engine.self_s": "engine.run_double_oracle",
    "fictitious_play.self_s": "fictitious_play.run_fictitious_play",
    "matrix_game.subgame_matrix.s": "matrix_game.subgame_matrix",
    "matrix_game.solve_zero_sum.self_s": "matrix_game.solve_zero_sum",
    "highs.linprog.subgame.s": "highs.linprog.subgame",
    "highs.linprog.milp_node.s": "highs.linprog.milp_node",
    "highs.milp.s": "highs.milp",
    "linprog.solve_lp.s": "linprog.solve_lp",
    "milp.solve_milp.self_s": "milp.solve_milp",
    "blotto.build_best_response_milp.s": "blotto.build_best_response_milp",
    "oracle.self_s": ("oracle.p1", "oracle.p2"),
    "core.expected_utility.s": "core.expected_utility",
    "core.merge_duplicates.s": "core.merge_duplicates",
}
INCLUSIVE_TIMES = {
    "matrix_game.solve_zero_sum.s": "matrix_game.solve_zero_sum",
    "milp.solve_milp.s": "milp.solve_milp",
    "oracle.p1.s": "oracle.p1",
    "oracle.p2.s": "oracle.p2",
}
COUNTS = (
    "matrix_game.subgame_matrix.calls",
    "matrix_game.subgame_matrix.cells",
    "matrix_game.solve_zero_sum.calls",
    "highs.linprog.subgame.calls",
    "highs.linprog.subgame.nonoptimal",
    "highs.linprog.milp_node.calls",
    "highs.linprog.milp_node.nonoptimal",
    "highs.milp.calls",
    "linprog.solve_lp.calls",
    "milp.solve_milp.calls",
    "milp.solve_milp.nodes",
    "oracle.calls",
    "oracle.support",
    "oracle.cells",
    "core.merge_duplicates.calls",
    "core.merge_duplicates.atoms",
)


class Round(NamedTuple):
    traced: bool
    wall_s: float
    solve_s: float
    steps: int
    attempted: int
    failed: int
    bad: int  # ops whose output failed its check


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload, seed):
    """Time the import of the package and the build of one round's inputs.

    Runs in a fresh process, so the import is cold (apart from .pyc files).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[workload].build(seed, None)
    print(repr(time.perf_counter() - start))


def measure_setup(workload, seed):
    """Median set-up time over several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def execute(workload, seed, tracer):
    """Build one round and run its ops; returns (ops, outputs, solve_s).

    An op that raises has output None.
    """
    import workloads

    ops = workloads.WORKLOADS[workload].build(seed, tracer)
    solve_s = 0.0
    outputs = []
    for op in ops:
        started = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a failing solve is counted, not fatal
            out = None
            print(f"{workload}: {op.label} raised\n{traceback.format_exc()}", file=sys.stderr)
        solve_s += time.perf_counter() - started
        op.call = None  # let the op's oracles and their caches go
        outputs.append(out)
    return ops, outputs, solve_s


def judge(workload, ops, outputs):
    """Check a round's outputs; returns (steps, attempted, failed, bad).

    ``failed`` counts ops that raised or failed a check, ``bad`` only the
    latter.
    """
    import workloads

    done = [i for i, out in enumerate(outputs) if out is not None]
    spec = workloads.WORKLOADS[workload]
    problems = spec.check([ops[i] for i in done], [outputs[i] for i in done])
    bad = 0
    for i, found in zip(done, problems):
        if found:
            bad += 1
            print(f"{workload}: {ops[i].label}: " + "; ".join(found[:5]), file=sys.stderr)
    steps = sum(spec.steps(outputs[i]) for i in done)
    return steps, len(ops), len(ops) - len(done) + bad, bad


def run_round(workload, seed, tracer):
    """Build, run and check one round; returns (solve_s, steps, attempted, failed, bad)."""
    ops, outputs, solve_s = execute(workload, seed, tracer)
    return (solve_s,) + judge(workload, ops, outputs)


def measure(workload, seed, seconds, tracer):
    """Repeat rounds until the next one would end past ``seconds``.

    In a traced run the rounds alternate untraced, traced, untraced, ...
    """
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.on = traced
        t0 = time.perf_counter()
        result = run_round(workload, seed, tracer if traced else None)
        if tracer is not None:
            tracer.on = False
        rounds.append(Round(traced, time.perf_counter() - t0, *result))
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + rounds[-1].wall_s > seconds:
            return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rounds, setup_s):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(setup_s, "s"),
        "solve_s": metric(statistics.median(r.solve_s for r in rounds), "s"),
        "iterations": metric(statistics.median(r.steps for r in rounds), "count"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def layer_metrics(rounds, tracer):
    """Per-round means over the traced rounds; self times sum to trace.solve_s."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    inclusive, self_time, roots = tracer.summary()

    def total(table, names):
        names = (names,) if isinstance(names, str) else names
        return sum(table.get(name, 0.0) for name in names) / n

    out = {name: metric(total(self_time, span), "s") for name, span in SELF_TIMES.items()}
    out.update({name: metric(total(inclusive, span), "s") for name, span in INCLUSIVE_TIMES.items()})
    out.update({name: metric(tracer.counts.get(name, 0) / n, "count") for name in COUNTS})
    out["matrix_game.solve_zero_sum.max_size"] = metric(tracer.max_size, "count")
    out["trace.solve_s"] = metric(roots / n, "s")
    out["trace.overhead_s"] = metric(
        statistics.fmean(r.solve_s for r in traced) - statistics.fmean(r.solve_s for r in plain), "s"
    )
    accounted = sum(v["value"] for k, v in out.items() if k in SELF_TIMES)
    return out, abs(accounted - roots / n) <= 1e-9 * max(1.0, roots / n)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "double_oracle" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'double_oracle'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_scipy(tracer)
    sys.path.insert(0, str(SRC))
    import double_oracle

    if Path(double_oracle.__file__).resolve().parent != SRC / "double_oracle":
        print(f"imported double_oracle from {double_oracle.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracing.install_package(tracer)

    rounds = measure(args.workload, args.seed, args.seconds, tracer)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.bad for r in rounds)
    if tracer is None:
        metrics = end_to_end_metrics(rounds, setup_s)
    else:
        metrics, consistent = layer_metrics(rounds, tracer)
        if not consistent:
            print("self times do not add up to the traced solve time", file=sys.stderr)
            correct = False

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  rounds=[{"traced": r.traced, "wall_s": r.wall_s, "solve_s": r.solve_s} for r in rounds])
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.jsonl", {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
