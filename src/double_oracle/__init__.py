"""Double oracle solver for continuous two-player zero-sum games."""

from .blotto import (
    BlottoGame,
    BlottoGridOracle,
    BlottoMilpOracle,
    allocation,
    blotto_utility,
    build_best_response_milp,
    milp_best_response,
    simplex_grid,
)
from .core import (
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    IntervalUnion,
    Simplex,
    StrategyPoint,
    dirac,
    expected_utility,
    merge_duplicates,
    point,
)
from .engine import (
    IterationRecord,
    SolveResult,
    bounds_from_profile,
    run_double_oracle,
)
from .errors import (
    DomainError,
    GameSolverError,
    InvalidStrategyError,
    ModelError,
    OracleContractError,
    ParameterError,
    ResourceLimitError,
)
from .fictitious_play import FictitiousPlayResult, run_fictitious_play
from .matrix_game import (
    MatrixGame,
    embed_matrix_game,
    solve_zero_sum,
    subgame_matrix,
)
from .milp import MilpModel, MilpSolution, solve_milp
from .one_dim import (
    GridSearchOracle,
    duplicate_first_axis,
    make_polynomial_game,
    make_townsend_game,
)
from .oracles import BestResponseOracle, FinitePointOracle, OracleAnswer

__version__ = "0.1.0"

__all__ = [
    "BestResponseOracle",
    "BlottoGame",
    "BlottoGridOracle",
    "BlottoMilpOracle",
    "Box",
    "DomainError",
    "FictitiousPlayResult",
    "FiniteMixedStrategy",
    "FinitePointOracle",
    "GameDefinition",
    "GameSolverError",
    "GridSearchOracle",
    "IntervalUnion",
    "InvalidStrategyError",
    "IterationRecord",
    "MatrixGame",
    "MilpModel",
    "MilpSolution",
    "ModelError",
    "OracleAnswer",
    "OracleContractError",
    "ParameterError",
    "ResourceLimitError",
    "Simplex",
    "SolveResult",
    "StrategyPoint",
    "allocation",
    "blotto_utility",
    "bounds_from_profile",
    "build_best_response_milp",
    "dirac",
    "duplicate_first_axis",
    "embed_matrix_game",
    "expected_utility",
    "make_polynomial_game",
    "make_townsend_game",
    "merge_duplicates",
    "milp_best_response",
    "point",
    "run_double_oracle",
    "run_fictitious_play",
    "simplex_grid",
    "solve_milp",
    "solve_zero_sum",
    "subgame_matrix",
]
