#!/usr/bin/env python3
"""Colonel Blotto experiments: oracle choices and subgame seedings.

The default set finishes in a few seconds:

  1. seed the subgame with the whole allocation lattice (gap closes in
     one LP solve),
  2. grow the subgame from the three corner allocations with the
     enumeration oracle,
  3. spot-check the exact MILP best response against lattice enumeration
     (``BlottoGridOracle``) for a few opponent mixtures.

``--heavy`` appends a double-oracle run that calls the MILP oracle every
iteration, from the corners at c = 1/8 to epsilon = 1e-3.  Each response
solves a MILP whose size grows with the opponent's support; the run closes
the gap in 20 iterations, in about a second.
"""

import argparse
import os
import sys
import time

import numpy as np

from double_oracle import (
    BlottoGame,
    BlottoGridOracle,
    FiniteMixedStrategy,
    allocation,
    milp_best_response,
    simplex_grid,
)
from double_oracle.cli import main as cli_main


def run_cli(outdir: str, label: str, **settings) -> int:
    print(f"== {label} ==")
    argv = ["run", "--game", "blotto", "--outdir", outdir]
    for key, value in settings.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code = cli_main(argv)
    # 2 only flags an exhausted budget; the trace is still valid.
    if code == 1:
        raise SystemExit(1)
    print()
    return code


def spot_check_oracles(seed: int) -> int:
    print("== MILP best response vs lattice enumeration (c = 1/8) ==")
    rng = np.random.default_rng(seed)
    game = BlottoGame(3, (1.0, 1.0, 1.0), 0.125)
    lattice = simplex_grid(game.n, game.c)
    enumeration = BlottoGridOracle(game, 1)

    corners = [allocation(tuple(float(i == j) for i in range(3))) for j in range(3)]
    picks = rng.choice(len(lattice), size=5, replace=False)
    opponents = [
        ("uniform over corners", FiniteMixedStrategy(corners, (1 / 3,) * 3)),
        (
            "5 lattice atoms",
            FiniteMixedStrategy(
                [lattice[i] for i in picks], tuple(rng.dirichlet(np.ones(5)))
            ),
        ),
        (
            "4 off-lattice atoms",
            FiniteMixedStrategy(
                [allocation(tuple(v)) for v in rng.dirichlet(np.ones(3), size=4)],
                tuple(rng.dirichlet(np.ones(4))),
            ),
        ),
    ]

    violations = 0
    for label, mix in opponents:
        t0 = time.perf_counter()
        exact = milp_best_response(mix, game)
        t_milp = time.perf_counter() - t0
        t0 = time.perf_counter()
        gridded = enumeration.respond(mix)
        t_grid = time.perf_counter() - t0
        ok = exact.value >= gridded.value - 1e-6
        violations += not ok
        print(
            f"  vs {label}: milp {exact.value:+.6f} ({t_milp * 1e3:.0f} ms), "
            f"lattice {gridded.value:+.6f} ({t_grid * 1e3:.0f} ms)"
            + ("" if ok else "  << MILP BELOW LATTICE")
        )
        print(f"    milp response  {tuple(round(v, 4) for v in exact.point.coords)}")
    print()
    return violations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="results", help="root directory for run artifacts")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--heavy",
        action="store_true",
        help="also run the MILP-oracle double-oracle loop",
    )
    args = ap.parse_args()

    run_cli(
        os.path.join(args.outdir, "blotto-full-lattice"),
        "full-lattice seeding, enumeration oracle, c = 1/16",
        oracle="enumeration",
        init="grid",
        c=0.0625,
        epsilon=1e-6,
        seed=args.seed,
    )
    run_cli(
        os.path.join(args.outdir, "blotto-corners"),
        "corner seeding, enumeration oracle, c = 1/16",
        oracle="enumeration",
        init="corners",
        c=0.0625,
        epsilon=1e-6,
        seed=args.seed,
    )
    violations = spot_check_oracles(args.seed)

    if args.heavy:
        run_cli(
            os.path.join(args.outdir, "blotto-milp"),
            "corner seeding, MILP oracle, c = 1/8",
            oracle="milp",
            init="corners",
            c=0.125,
            epsilon=1e-3,
            seed=args.seed,
        )

    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
