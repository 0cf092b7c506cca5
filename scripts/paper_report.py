#!/usr/bin/env python3
"""Reproduce the paper's experiments and report them in one table set.

Runs, through the library:

  1. double oracle and fictitious play on the two 1-D games from the
     literature (g1 and g2), to epsilon = 1e-6 or 200 iterations;
  2. continuous Colonel Blotto (n = 3, c = 1/16) with the enumeration
     oracle, from the whole allocation lattice and from the corners;
  3. a spot check of the exact MILP best response against lattice
     enumeration at c = 1/8, for three opponent mixtures.

``--heavy`` adds a double-oracle run from the corners at c = 1/8 that
calls the MILP oracle every iteration, to epsilon = 1e-3.

Writes ``report.json`` (every run's trace rows included) and
``report.md`` into ``--outdir``, and prints the Markdown. Exits 1 when a
MILP value falls more than 1e-6 below the lattice value or a run raises.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from double_oracle import (
    BlottoGame,
    BlottoGridOracle,
    FiniteMixedStrategy,
    GameSolverError,
    allocation,
    milp_best_response,
    simplex_grid,
)
from double_oracle.cli import (
    RUN_HEADER,
    ExperimentConfig,
    build_problem,
    result_payload,
    solve,
    trace_fields,
)

MILESTONES = (1, 5, 10, 20, 50, 100, 200)
SPOT_CHECK_TOL = 1e-6


def experiments(seed: int, heavy: bool) -> dict[str, ExperimentConfig]:
    runs = {}
    for game in ("g1-polynomial", "g2-townsend"):
        for algorithm in ("double-oracle", "fictitious-play"):
            runs[f"{game[:2]}-{algorithm}"] = ExperimentConfig(
                game=game, algorithm=algorithm, epsilon=1e-6, max_iters=200, seed=seed
            )
    blotto = dict(game="blotto", oracle="enumeration", c=0.0625, epsilon=1e-6, seed=seed)
    runs["blotto-full-lattice"] = ExperimentConfig(init="grid", **blotto)
    runs["blotto-corners"] = ExperimentConfig(init="corners", **blotto)
    if heavy:
        runs["blotto-milp"] = ExperimentConfig(
            game="blotto", oracle="milp", init="corners", c=0.125, epsilon=1e-3, seed=seed
        )
    return runs


def run(name: str, cfg: ExperimentConfig) -> dict:
    """``run``'s result JSON for ``cfg``, plus the run's name, wall time and trace rows."""
    started = time.perf_counter()
    solved = solve(cfg, build_problem(cfg))
    wall_s = time.perf_counter() - started
    return {
        "run": name,
        **result_payload(cfg, *solved),
        "wall_s": wall_s,
        "trace": [dict(zip(RUN_HEADER, trace_fields(r))) for r in solved[2]],
    }


def spot_check(seed: int) -> list[dict]:
    """The exact MILP best response against lattice enumeration (c = 1/8)."""
    rng = np.random.default_rng(seed)
    game = BlottoGame(3, (1.0, 1.0, 1.0), 0.125)
    lattice = simplex_grid(game.n, game.c)
    enumeration = BlottoGridOracle(game, 1)
    corners = [allocation(tuple(float(i == j) for i in range(3))) for j in range(3)]
    picks = rng.choice(len(lattice), size=5, replace=False)
    opponents = {
        "uniform over corners": FiniteMixedStrategy(corners, (1 / 3,) * 3),
        "5 lattice atoms": FiniteMixedStrategy(
            [lattice[i] for i in picks], tuple(rng.dirichlet(np.ones(5)))
        ),
        "4 off-lattice atoms": FiniteMixedStrategy(
            [allocation(tuple(v)) for v in rng.dirichlet(np.ones(3), size=4)],
            tuple(rng.dirichlet(np.ones(4))),
        ),
    }
    checks = []
    for label, mix in opponents.items():
        exact = milp_best_response(mix, game)
        gridded = enumeration.respond(mix).value
        checks.append({
            "opponent": label,
            "milp": exact.value,
            "lattice": gridded,
            "milp_response": exact.point.coords,
            "ok": bool(exact.value >= gridded - SPOT_CHECK_TOL),
        })
    return checks


def table(header: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]


def markdown(report: dict) -> str:
    runs = report["runs"]
    lines = ["## Runs", ""] + table(
        ["run", "game", "algorithm", "iterations", "ended", "value", "gap", "wall s"],
        [[r["run"], r["game"], r["algorithm"], r["iterations"], r["terminated_by"],
          f"{r['value']:.6g}", f"{r['gap']:.3e}", f"{r['wall_s']:.3f}"] for r in runs],
    )
    # A run that has stopped repeats its final gap.
    lines += ["", "## Gap at milestone iterations", ""] + table(
        ["iter"] + [r["run"] for r in runs],
        [[it] + [f"{r['trace'][min(it, len(r['trace'])) - 1]['gap']:.3e}" for r in runs]
         for it in MILESTONES],
    )
    lines += ["", "## MILP best response vs lattice enumeration (c = 1/8)", ""] + table(
        ["opponent", "MILP", "lattice", "MILP response", "ok"],
        [[c["opponent"], f"{c['milp']:+.6f}", f"{c['lattice']:+.6f}",
          tuple(round(v, 4) for v in c["milp_response"]), c["ok"]]
         for c in report["spot_check"]],
    )
    lines += [f"\nerror: {name}: {message}" for name, message in report["errors"].items()]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="results", help="where to write report.json and report.md")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--heavy", action="store_true", help="also run the MILP-oracle double oracle")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    report = {"seed": args.seed, "runs": [], "spot_check": [], "errors": {}}
    for name, cfg in experiments(args.seed, args.heavy).items():
        try:
            report["runs"].append(run(name, cfg))
        except GameSolverError as exc:
            report["errors"][name] = str(exc)
    try:
        report["spot_check"] = spot_check(args.seed)
    except GameSolverError as exc:
        report["errors"]["spot-check"] = str(exc)

    text = markdown(report)
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(args.outdir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    failed = report["errors"] or not all(c["ok"] for c in report["spot_check"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
