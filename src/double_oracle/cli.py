"""Experiment command line: solve named games and persist traces.

Two subcommands:

``run``
    Solve one game with the selected algorithm, streaming a per-iteration
    CSV trace (header ``iter,lower,upper,gap,subgame_value,size_x,size_y,
    time_s``) and writing a JSON summary with the final mixed strategies.

``compare``
    Run double oracle, then fictitious play, on one config (``run``'s
    settings except ``--algo``) and write their bound trajectories side by
    side (``iter,do_lower,do_upper,fp_lower,fp_upper``), padding the shorter
    run with its final row.

Each setting is one field of :class:`ExperimentConfig`, which declares its
default, its text parser and its help once for both the ``--flag`` and the
config-file key. Settings are resolved in order: built-in defaults, then the
``DOUBLE_ORACLE_OUTDIR`` environment variable (output directory only), then
a flat ``key=value`` config file (``--config``), then command-line flags.
Exit status of ``run`` is 0 when the run terminated by closing the bound
gap, 2 when it hit the iteration cap or stalled (a double-oracle iteration
added no strategy, so no later one could close the gap), and 1 on any error;
``compare`` exits 0 or 1. A partially written trace is flushed row by row,
so it survives mid-run failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace

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


def _parse_weights(text: str) -> tuple[float, ...]:
    parts = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(tok) for tok in parts)


def _setting(default, parse, help, **flag):
    """A config field with its default, the parser of its text, and its help."""
    return field(default=default, metadata={"type": parse, "help": help, **flag})


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, with CLI-facing defaults.

    A field's metadata is the ``add_argument`` keywords of its flag, and its
    ``type`` also parses the field's config-file value. ``algorithm`` is
    ``run --algo``; every other field is a flag of both subcommands.
    """

    game: str = _setting(
        "g1-polynomial", str, f"game to solve: {', '.join(GAMES)} (aliases: g1, g2, matrix)"
    )
    algorithm: str = _setting("double-oracle", str, "algorithm to run", choices=ALGORITHMS)
    epsilon: float = _setting(1e-3, float, "target bound gap (>= 0)")
    max_iters: int = _setting(1000, int, "iteration budget")
    seed: int = _setting(0, int, "seed for random initialization")
    resolution: float = _setting(DEFAULT_RESOLUTION, float, "1-D oracle grid spacing")
    lipschitz: float | None = _setting(
        None,
        float,
        "Lipschitz bound of the 1-D game in each player's own coordinate; sets the "
        "oracle's declared accuracy and which grid cells it skips, so a value below the "
        "true bound can return a worse grid point",
    )
    oracle: str = _setting("milp", str, "blotto oracle: milp or enumeration")
    n: int = _setting(3, int, "blotto: number of battlefields")
    a: tuple[float, ...] | None = _setting(
        None, _parse_weights, "blotto: battlefield weights", metavar="W1,W2,..."
    )
    c: float = _setting(0.0625, float, "blotto: contest sharpness in (0, 1]")
    init: str = _setting("corners", str, "blotto initialization: corners, grid, or random")
    matrix: str | None = _setting(None, str, "path to a JSON payoff matrix (custom-finite-matrix)")
    outdir: str = _setting(".", str, f"output directory (or ${OUTDIR_ENV})")


_SETTINGS = {f.name: f for f in fields(ExperimentConfig)}


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
        if key not in _SETTINGS:
            raise ParameterError(f"config: {path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key].metadata["type"](text.strip())
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
    if not (math.isfinite(cfg.epsilon) and cfg.epsilon >= 0):
        raise ParameterError(f"epsilon: must be finite and >= 0, got {cfg.epsilon}")
    if cfg.max_iters < 1:
        raise ParameterError(f"max_iters: must be >= 1, got {cfg.max_iters}")
    if cfg.seed < 0:
        raise ParameterError(f"seed: must be >= 0, got {cfg.seed}")
    if not (math.isfinite(cfg.resolution) and cfg.resolution > 0):
        raise ParameterError(f"resolution: must be finite and > 0, got {cfg.resolution}")
    if cfg.lipschitz is not None and not (math.isfinite(cfg.lipschitz) and cfg.lipschitz > 0):
        raise ParameterError(f"lipschitz: must be finite and > 0, got {cfg.lipschitz}")
    if cfg.game == "blotto":
        if cfg.n < 2:
            raise ParameterError(f"n: need at least 2 battlefields, got {cfg.n}")
        if not 0 < cfg.c <= 1:
            raise ParameterError(f"c: must lie in (0, 1], got {cfg.c}")
        if cfg.a is not None and (len(cfg.a) != cfg.n or any(not (w > 0) for w in cfg.a)):
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
            name = "init" if cfg.init == "grid" else "oracle"
            raise ParameterError(
                f"{name}: 1/c is not integral (c={cfg.c}), so there is no allocation lattice"
            )
    if cfg.game == "custom-finite-matrix" and not cfg.matrix:
        raise ParameterError("matrix: a payoff matrix file is required for custom-finite-matrix")


def build_config(flags: dict[str, object], config_path: str | None = None) -> ExperimentConfig:
    """Merge defaults, environment, config file, and flags, then validate."""
    cfg = ExperimentConfig()
    env_outdir = os.environ.get(OUTDIR_ENV)
    if env_outdir:
        cfg.outdir = env_outdir
    if config_path:
        for key, value in read_config_file(config_path).items():
            setattr(cfg, key, value)
    for key, value in flags.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.game = _GAME_ALIASES.get(cfg.game, cfg.game)
    validate_config(cfg)
    return cfg


# A game, the oracles of players 1 and 2, and their initial strategy sets.
Problem = tuple[
    GameDefinition, BestResponseOracle, BestResponseOracle, list[StrategyPoint], list[StrategyPoint]
]


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


def build_problem(cfg: ExperimentConfig) -> Problem:
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


def output_paths(cfg: ExperimentConfig) -> tuple[str, str]:
    base = f"{cfg.game}_{cfg.algorithm}"
    return (
        os.path.join(cfg.outdir, f"{base}_trace.csv"),
        os.path.join(cfg.outdir, f"{base}_result.json"),
    )


def solve(
    cfg: ExperimentConfig,
    problem: Problem,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> tuple[FiniteMixedStrategy, FiniteMixedStrategy, list[IterationRecord], str]:
    """Run ``cfg.algorithm`` on a :func:`build_problem` result.

    Returns the final mixtures of both players, the trace, and how the run
    ended.
    """
    game, oracle1, oracle2, init_x, init_y = problem
    if cfg.algorithm == "double-oracle":
        result = run_double_oracle(
            game, oracle1, oracle2, init_x, init_y,
            epsilon=cfg.epsilon, max_iters=cfg.max_iters, on_iteration=on_iteration,
        )
        return result.p_star, result.q_star, result.trace, result.terminated_by
    fp = run_fictitious_play(
        game, oracle1, oracle2, init_x[0], init_y[0],
        iters=cfg.max_iters, on_iteration=on_iteration,
    )
    # FP has no stopping rule; it always spends its full budget.
    return fp.empirical1, fp.empirical2, fp.trace, TERMINATED_CAP


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    os.makedirs(cfg.outdir, exist_ok=True)
    trace_path, result_path = output_paths(cfg)
    problem = build_problem(cfg)

    with open(trace_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RUN_HEADER)
        fh.flush()

        def emit(rec: IterationRecord) -> None:
            writer.writerow(_trace_row(rec))
            fh.flush()

        p_star, q_star, trace, terminated = solve(cfg, problem, emit)

    last = trace[-1]
    payload = {
        "game": cfg.game,
        "algorithm": cfg.algorithm,
        "seed": cfg.seed,
        "config": asdict(cfg),
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


def compare_experiment(cfg: ExperimentConfig, out_path: str | None = None) -> int:
    """Run double oracle, then fictitious play, on ``cfg`` and write the combined CSV."""
    trace_do = solve(replace(cfg, algorithm="double-oracle"), build_problem(cfg))[2]
    trace_fp = solve(replace(cfg, algorithm="fictitious-play"), build_problem(cfg))[2]

    os.makedirs(cfg.outdir, exist_ok=True)
    out_path = out_path or os.path.join(cfg.outdir, f"compare_{cfg.game}.csv")
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
        f"{cfg.game}: double-oracle gap {_fmt(gd.upper - gd.lower)} after "
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
    for name, setting in _SETTINGS.items():
        if name != "algorithm":
            parser.add_argument("--" + name.replace("_", "-"), dest=name, **setting.metadata)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="double-oracle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="solve one game and write trace + result files")
    _add_shared_flags(run_p)
    run_p.add_argument("--algo", dest="algorithm", **_SETTINGS["algorithm"].metadata)

    cmp_p = sub.add_parser("compare", help="run both algorithms and write a combined trace")
    _add_shared_flags(cmp_p)
    cmp_p.add_argument("--out", help="combined CSV path (default <outdir>/compare_<game>.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        flags = {k: v for k, v in vars(args).items() if k in _SETTINGS}
        cfg = build_config(flags, args.config)
        if args.command == "run":
            return run_experiment(cfg)
        return compare_experiment(cfg, args.out)
    except (GameSolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
