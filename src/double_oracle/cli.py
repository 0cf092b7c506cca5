"""Experiment command line: solve named games and persist traces.

Two subcommands:

``run``
    Solve one game with the selected algorithm, streaming a per-iteration
    CSV trace (header ``iter,lower,upper,gap,subgame_value,size_x,size_y,
    time_s``) and writing a JSON summary with the final mixed strategies.

``compare``
    Run both algorithms on identical settings with the same seed and write
    their bound trajectories side by side (``iter,do_lower,do_upper,
    fp_lower,fp_upper``), padding the shorter run with its final row.

Settings are resolved in order: built-in defaults, then the
``DOUBLE_ORACLE_OUTDIR`` environment variable (output directory only), then
a flat ``key=value`` config file (``--config``), then command-line flags.
Exit status is 0 when the run terminated by closing the bound gap, 2 when it
hit the iteration cap, and 1 on any error; a partially written trace is
flushed row by row, so it survives mid-run failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .blotto import (
    BlottoGame,
    BlottoGridOracle,
    BlottoMilpOracle,
    allocation,
    game_definition,
    simplex_grid,
)
from .core import FiniteMixedStrategy, GameDefinition, StrategyPoint
from .engine import (
    TERMINATED_CAP,
    TERMINATED_GAP,
    IterationRecord,
    run_double_oracle,
)
from .errors import GameSolverError, ParameterError
from .fictitious_play import run_fictitious_play
from .matrix_game import embed_matrix_game
from .one_dim import (
    DEFAULT_RESOLUTION,
    POLYNOMIAL_LIPSCHITZ,
    TOWNSEND_LIPSCHITZ,
    GridSearchOracle,
    make_polynomial_game,
    make_townsend_game,
)
from .oracles import BestResponseOracle, FinitePointOracle

GAMES = ("g1-polynomial", "g2-townsend", "blotto", "custom-finite-matrix")
_GAME_ALIASES = {"g1": "g1-polynomial", "g2": "g2-townsend", "matrix": "custom-finite-matrix"}
ALGORITHMS = ("double-oracle", "fictitious-play")
BLOTTO_ORACLES = ("milp", "enumeration")
BLOTTO_INITS = ("corners", "grid", "random")

OUTDIR_ENV = "DOUBLE_ORACLE_OUTDIR"
RUN_HEADER = ["iter", "lower", "upper", "gap", "subgame_value", "size_x", "size_y", "time_s"]
COMPARE_HEADER = ["iter", "do_lower", "do_upper", "fp_lower", "fp_upper"]


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, with CLI-facing defaults."""

    game: str = "g1-polynomial"
    algorithm: str = "double-oracle"
    epsilon: float = 1e-3
    max_iters: int = 1000
    seed: int = 0
    resolution: float = DEFAULT_RESOLUTION
    lipschitz: float | None = None
    oracle: str = "milp"
    n: int = 3
    a: tuple[float, ...] | None = None
    c: float = 0.0625
    init: str = "corners"
    matrix: str | None = None
    outdir: str = "."


def _parse_weights(text: str) -> tuple[float, ...]:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(tok) for tok in parts)


_FIELD_PARSERS = {
    "game": str,
    "algorithm": str,
    "epsilon": float,
    "max_iters": int,
    "seed": int,
    "resolution": float,
    "lipschitz": float,
    "oracle": str,
    "n": int,
    "a": _parse_weights,
    "c": float,
    "init": str,
    "matrix": str,
    "outdir": str,
}


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat ``key=value`` file (``#`` comments and blank lines ok)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"config: cannot read {path}: {exc}") from None
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        if not sep:
            raise ParameterError(f"config: {path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ParameterError(f"config: {path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parser(text.strip())
        except ValueError as exc:
            raise ParameterError(f"{key}: {path}:{lineno}: {exc}") from None
    return values


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject bad settings with a message that names the offending field."""
    if cfg.game not in GAMES:
        raise ParameterError(f"game: unknown game {cfg.game!r}; choices are {', '.join(GAMES)}")
    if cfg.algorithm not in ALGORITHMS:
        raise ParameterError(
            f"algorithm: unknown algorithm {cfg.algorithm!r}; choices are {', '.join(ALGORITHMS)}"
        )
    if cfg.epsilon < 0:
        raise ParameterError(f"epsilon: must be >= 0, got {cfg.epsilon}")
    if cfg.max_iters < 1:
        raise ParameterError(f"max_iters: must be >= 1, got {cfg.max_iters}")
    if cfg.resolution <= 0:
        raise ParameterError(f"resolution: must be > 0, got {cfg.resolution}")
    if cfg.lipschitz is not None and not (math.isfinite(cfg.lipschitz) and cfg.lipschitz > 0):
        raise ParameterError(f"lipschitz: must be finite and > 0, got {cfg.lipschitz}")
    if cfg.game == "blotto":
        if cfg.n < 2:
            raise ParameterError(f"n: need at least 2 battlefields, got {cfg.n}")
        if not 0 < cfg.c <= 1:
            raise ParameterError(f"c: must lie in (0, 1], got {cfg.c}")
        if cfg.a is not None and (len(cfg.a) != cfg.n or any(w <= 0 for w in cfg.a)):
            raise ParameterError(f"a: need {cfg.n} positive weights, got {cfg.a}")
        if cfg.oracle not in BLOTTO_ORACLES:
            raise ParameterError(
                f"oracle: unknown oracle {cfg.oracle!r}; choices are {', '.join(BLOTTO_ORACLES)}"
            )
        if cfg.init not in BLOTTO_INITS:
            raise ParameterError(
                f"init: unknown initialization {cfg.init!r}; choices are {', '.join(BLOTTO_INITS)}"
            )
        if cfg.oracle == "enumeration" and cfg.init == "random":
            raise ParameterError(
                "init: random starting points leave the allocation lattice that "
                "the enumeration oracle searches; use corners or grid"
            )
        lattice = cfg.init == "grid" or cfg.oracle == "enumeration"
        if lattice and abs(1.0 / cfg.c - round(1.0 / cfg.c)) > 1e-9:
            field = "init" if cfg.init == "grid" else "oracle"
            raise ParameterError(
                f"{field}: 1/c is not integral (c={cfg.c}), so there is no allocation lattice"
            )
    if cfg.game == "custom-finite-matrix" and not cfg.matrix:
        raise ParameterError("matrix: a payoff matrix file is required for custom-finite-matrix")


def build_config(
    flags: dict[str, object],
    config_path: str | None = None,
    extra_path: str | None = None,
) -> ExperimentConfig:
    """Merge defaults, environment, config file(s), and flags, then validate."""
    cfg = ExperimentConfig()
    env_outdir = os.environ.get(OUTDIR_ENV)
    if env_outdir:
        cfg.outdir = env_outdir
    for path in (config_path, extra_path):
        if path:
            for key, value in read_config_file(path).items():
                setattr(cfg, key, value)
    for key, value in flags.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.game = _GAME_ALIASES.get(cfg.game, cfg.game)
    validate_config(cfg)
    return cfg


def _flag_values(args: argparse.Namespace) -> dict[str, object]:
    names = {f.name for f in fields(ExperimentConfig)}
    return {k: v for k, v in vars(args).items() if k in names}


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"matrix: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"matrix: {path} is not valid JSON ({exc})") from None
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"matrix: {path} must hold a rectangular numeric matrix") from None
    if arr.ndim != 2 or arr.size == 0 or not np.isfinite(arr).all():
        raise ParameterError(f"matrix: {path} must hold a finite 2-D matrix")
    return arr


def build_problem(
    cfg: ExperimentConfig,
) -> tuple[GameDefinition, BestResponseOracle, BestResponseOracle, list[StrategyPoint], list[StrategyPoint]]:
    """Instantiate the game, its oracles, and the initial strategy sets.

    The seed feeds ``numpy.random.default_rng`` and is consumed only by
    random initialization (player 1 first); everything downstream is
    deterministic.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.game in ("g1-polynomial", "g2-townsend"):
        if cfg.game == "g1-polynomial":
            game, lip = make_polynomial_game(), POLYNOMIAL_LIPSCHITZ
        else:
            game, lip = make_townsend_game(), TOWNSEND_LIPSCHITZ
        if cfg.lipschitz is not None:
            lip = cfg.lipschitz
        oracle1 = GridSearchOracle(game, 1, resolution=cfg.resolution, lipschitz=lip)
        oracle2 = GridSearchOracle(game, 2, resolution=cfg.resolution, lipschitz=lip)
        init_x = [game.space1.sample(rng)]
        init_y = [game.space2.sample(rng)]
        return game, oracle1, oracle2, init_x, init_y
    if cfg.game == "blotto":
        weights = cfg.a if cfg.a is not None else tuple(1.0 for _ in range(cfg.n))
        bg = BlottoGame(cfg.n, weights, cfg.c)
        game = game_definition(bg)
        if cfg.oracle == "milp":
            oracle1: BestResponseOracle = BlottoMilpOracle(bg, 1)
            oracle2: BestResponseOracle = BlottoMilpOracle(bg, 2)
        else:
            oracle1 = BlottoGridOracle(bg, 1)
            oracle2 = BlottoGridOracle(bg, 2)
        if cfg.init == "corners":
            pts = [
                allocation(tuple(1.0 if i == j else 0.0 for i in range(cfg.n)))
                for j in range(cfg.n)
            ]
            init_x, init_y = list(pts), list(pts)
        elif cfg.init == "grid":
            pts = simplex_grid(cfg.n, cfg.c)
            init_x, init_y = list(pts), list(pts)
        else:
            init_x = [game.space1.sample(rng)]
            init_y = [game.space2.sample(rng)]
        return game, oracle1, oracle2, init_x, init_y
    payoff = _load_matrix(cfg.matrix)
    game, rows, cols = embed_matrix_game(payoff)
    oracle1 = FinitePointOracle(game, 1, rows)
    oracle2 = FinitePointOracle(game, 2, cols)
    return game, oracle1, oracle2, [rows[0]], [cols[0]]


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _trace_row(rec: IterationRecord) -> list[str]:
    return [
        str(rec.index),
        _fmt(rec.lower),
        _fmt(rec.upper),
        _fmt(rec.upper - rec.lower),
        _fmt(rec.subgame_value),
        str(rec.size_x),
        str(rec.size_y),
        _fmt(rec.time_s),
    ]


def _mixture_payload(mix: FiniteMixedStrategy) -> dict[str, list]:
    return {
        "atoms": [[float(c) for c in atom.coords] for atom in mix.atoms],
        "weights": [float(w) for w in mix.weights],
    }


def _config_payload(cfg: ExperimentConfig) -> dict[str, object]:
    payload = asdict(cfg)
    if payload["a"] is not None:
        payload["a"] = list(payload["a"])
    return payload


def output_paths(cfg: ExperimentConfig) -> tuple[str, str]:
    base = f"{cfg.game}_{cfg.algorithm}"
    return (
        os.path.join(cfg.outdir, f"{base}_trace.csv"),
        os.path.join(cfg.outdir, f"{base}_result.json"),
    )


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    os.makedirs(cfg.outdir, exist_ok=True)
    trace_path, result_path = output_paths(cfg)
    game, oracle1, oracle2, init_x, init_y = build_problem(cfg)

    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_HEADER)
        fh.flush()

        def emit(rec: IterationRecord) -> None:
            writer.writerow(_trace_row(rec))
            fh.flush()

        if cfg.algorithm == "double-oracle":
            result = run_double_oracle(
                game,
                oracle1,
                oracle2,
                init_x,
                init_y,
                epsilon=cfg.epsilon,
                max_iters=cfg.max_iters,
                on_iteration=emit,
            )
            p_star, q_star = result.p_star, result.q_star
            trace, terminated = result.trace, result.terminated_by
        else:
            fp = run_fictitious_play(
                game,
                oracle1,
                oracle2,
                init_x[0],
                init_y[0],
                iters=cfg.max_iters,
                on_iteration=emit,
            )
            p_star, q_star = fp.empirical1, fp.empirical2
            # FP has no stopping rule; it always spends its full budget.
            trace, terminated = fp.trace, TERMINATED_CAP

    last = trace[-1]
    payload = {
        "game": cfg.game,
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
        "config": _config_payload(cfg),
        "value": float(last.subgame_value),
        "lower": float(last.lower),
        "upper": float(last.upper),
        "gap": float(last.upper - last.lower),
        "iterations": len(trace),
        "terminated_by": terminated,
        "p_star": _mixture_payload(p_star),
        "q_star": _mixture_payload(q_star),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    print(
        f"{cfg.game} / {cfg.algorithm}: value {_fmt(last.subgame_value)}, "
        f"gap {_fmt(last.upper - last.lower)} after {len(trace)} iteration(s) "
        f"[{terminated}]"
    )
    print(f"trace:  {trace_path}")
    print(f"result: {result_path}")
    return 0 if terminated == TERMINATED_GAP else 2


def _solver_trace(cfg: ExperimentConfig) -> list[IterationRecord]:
    game, oracle1, oracle2, init_x, init_y = build_problem(cfg)
    if cfg.algorithm == "double-oracle":
        return run_double_oracle(
            game, oracle1, oracle2, init_x, init_y,
            epsilon=cfg.epsilon, max_iters=cfg.max_iters,
        ).trace
    return run_fictitious_play(
        game, oracle1, oracle2, init_x[0], init_y[0], iters=cfg.max_iters
    ).trace


def compare_experiment(args: argparse.Namespace) -> int:
    """Run both algorithms side by side and write the combined CSV."""
    flags = _flag_values(args)
    flags.pop("algorithm", None)
    cfg_a = build_config(flags, args.config, args.config_a)
    cfg_b = build_config(flags, args.config, args.config_b)
    if args.algo_a is not None:
        cfg_a.algorithm = args.algo_a
    elif not args.config_a:
        cfg_a.algorithm = "double-oracle"
    if args.algo_b is not None:
        cfg_b.algorithm = args.algo_b
    elif not args.config_b:
        cfg_b.algorithm = "fictitious-play"
    validate_config(cfg_a)
    validate_config(cfg_b)

    if cfg_a.algorithm == cfg_b.algorithm:
        raise ParameterError(
            f"algorithm: compare needs two different algorithms, got {cfg_a.algorithm!r} twice"
        )
    for field in fields(ExperimentConfig):
        if field.name == "algorithm":
            continue
        va, vb = getattr(cfg_a, field.name), getattr(cfg_b, field.name)
        if va != vb:
            raise ParameterError(
                f"{field.name}: compare runs must share game settings, got {va!r} vs {vb!r}"
            )

    cfg_do = cfg_a if cfg_a.algorithm == "double-oracle" else cfg_b
    cfg_fp = cfg_b if cfg_do is cfg_a else cfg_a
    trace_do = _solver_trace(cfg_do)
    trace_fp = _solver_trace(cfg_fp)

    os.makedirs(cfg_a.outdir, exist_ok=True)
    out_path = args.out or os.path.join(cfg_a.outdir, f"compare_{cfg_a.game}.csv")
    rows = max(len(trace_do), len(trace_fp))
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARE_HEADER)
        for i in range(rows):
            rd = trace_do[min(i, len(trace_do) - 1)]
            rf = trace_fp[min(i, len(trace_fp) - 1)]
            writer.writerow(
                [str(i + 1), _fmt(rd.lower), _fmt(rd.upper), _fmt(rf.lower), _fmt(rf.upper)]
            )

    gd = trace_do[-1]
    gf = trace_fp[-1]
    print(
        f"{cfg_a.game}: double-oracle gap {_fmt(gd.upper - gd.lower)} after "
        f"{len(trace_do)} iteration(s); fictitious-play gap {_fmt(gf.upper - gf.lower)} "
        f"after {len(trace_fp)}"
    )
    print(f"compare: {out_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value settings file")
    parser.add_argument(
        "--game",
        help=f"game to solve: {', '.join(GAMES)} (aliases: g1, g2, matrix)",
    )
    parser.add_argument("--epsilon", type=float, help="target bound gap (>= 0)")
    parser.add_argument("--max-iters", type=int, dest="max_iters", help="iteration budget")
    parser.add_argument("--seed", type=int, help="seed for random initialization")
    parser.add_argument("--resolution", type=float, help="1-D oracle grid spacing")
    parser.add_argument(
        "--lipschitz",
        type=float,
        help="Lipschitz bound of the 1-D game in each player's own coordinate; sets the "
        "oracle's declared accuracy and which grid cells it skips, so a value below the "
        "true bound can return a worse grid point",
    )
    parser.add_argument("--oracle", help="blotto oracle: milp or enumeration")
    parser.add_argument("--n", type=int, help="blotto: number of battlefields")
    parser.add_argument(
        "--a", type=_parse_weights, metavar="W1,W2,...", help="blotto: battlefield weights"
    )
    parser.add_argument("--c", type=float, help="blotto: contest sharpness in (0, 1]")
    parser.add_argument("--init", help="blotto initialization: corners, grid, or random")
    parser.add_argument("--matrix", help="path to a JSON payoff matrix (custom-finite-matrix)")
    parser.add_argument("--outdir", help=f"output directory (or ${OUTDIR_ENV})")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="double-oracle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one game and write trace + result files")
    _add_shared_flags(run_p)
    run_p.add_argument(
        "--algo", dest="algorithm", choices=ALGORITHMS, help="algorithm to run"
    )

    cmp_p = sub.add_parser("compare", help="run both algorithms and write a combined trace")
    _add_shared_flags(cmp_p)
    cmp_p.add_argument("--algo-a", choices=ALGORITHMS, help="first algorithm (default double-oracle)")
    cmp_p.add_argument("--algo-b", choices=ALGORITHMS, help="second algorithm (default fictitious-play)")
    cmp_p.add_argument("--config-a", help="extra key=value file applied to the first run only")
    cmp_p.add_argument("--config-b", help="extra key=value file applied to the second run only")
    cmp_p.add_argument("--out", help="combined CSV path (default <outdir>/compare_<game>.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_experiment(build_config(_flag_values(args), args.config))
        return compare_experiment(args)
    except GameSolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
