"""Exact equilibria of finite zero-sum matrix games via linear programming.

One LP per game, solved by HiGHS: the row player's ``max v`` subject to
``A^T p >= v``, ``sum(p) = 1``, ``p >= 0``.  The column player's strategy is
the dual of the ``A^T p >= v`` rows.  The minimax certificate below is
verified on the returned pair, independent of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog as _scipy_linprog

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    StrategyPoint,
    merge_duplicates,
    require_in_space,
)
from .errors import ModelError

# Certificate residual above which solve_zero_sum raises.  The engine gives
# an oracle value the same slack against the subgame value.
VALUE_TOL = 1e-6


@dataclass
class MatrixGame:
    """Payoff matrix for player 1 plus the pure strategies labeling its axes."""

    payoff: np.ndarray
    row_strategies: tuple[StrategyPoint, ...]
    col_strategies: tuple[StrategyPoint, ...]

    def __post_init__(self):
        self.payoff = np.asarray(self.payoff, dtype=float)
        if self.payoff.ndim != 2 or self.payoff.size == 0:
            raise ModelError(f"payoff must be a nonempty matrix, got shape {self.payoff.shape}")
        if not np.all(np.isfinite(self.payoff)):
            raise ModelError("payoff entries must be finite")
        self.row_strategies = tuple(self.row_strategies)
        self.col_strategies = tuple(self.col_strategies)
        m, k = self.payoff.shape
        if len(self.row_strategies) != m or len(self.col_strategies) != k:
            raise ModelError("strategy labels must match the payoff shape")

    @classmethod
    def from_payoff(cls, payoff: Sequence[Sequence[float]]) -> "MatrixGame":
        """Label rows and columns by their indices (as 1-D points)."""
        arr = np.asarray(payoff, dtype=float)
        rows = tuple(StrategyPoint((float(i),)) for i in range(arr.shape[0]))
        cols = tuple(StrategyPoint((float(j),)) for j in range(arr.shape[1]))
        return cls(arr, rows, cols)


def embed_matrix_game(
    payoff: Sequence[Sequence[float]],
) -> tuple[GameDefinition, tuple[StrategyPoint, ...], tuple[StrategyPoint, ...]]:
    """Wrap a finite matrix game as a :class:`GameDefinition`.

    Pure strategies are the row/column indices embedded as 1-D points; the
    utility callable indexes into the payoff matrix.  Returns the game plus
    the two pure-strategy lists (handy for exhaustive oracles).
    """
    from .core import Box  # local import keeps module load order simple

    arr = np.asarray(payoff, dtype=float)
    if arr.ndim != 2 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ModelError(f"payoff must be a finite nonempty matrix, got shape {arr.shape}")
    m, k = arr.shape

    def lookup(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        i = np.rint(x[..., 0]).astype(int)
        j = np.rint(y[..., 0]).astype(int)
        return arr[i, j]

    rows = tuple(StrategyPoint((float(i),)) for i in range(m))
    cols = tuple(StrategyPoint((float(j),)) for j in range(k))
    game = GameDefinition(
        Box((0.0,), (float(m - 1),)),
        Box((0.0,), (float(k - 1),)),
        lookup,
        name="finite-matrix",
    )
    return game, rows, cols


def subgame_matrix(
    game: GameDefinition,
    xs: Sequence[StrategyPoint],
    ys: Sequence[StrategyPoint],
) -> MatrixGame:
    """Payoff matrix ``A[i][j] = u(xs[i], ys[j])`` evaluated by the game itself."""
    xs = list(xs)
    ys = list(ys)
    if not xs or not ys:
        raise ModelError("subgame needs at least one strategy per player")
    for pt in xs:
        require_in_space(game.space1, pt, "player 1")
    for pt in ys:
        require_in_space(game.space2, pt, "player 2")
    xa = np.asarray([p.coords for p in xs], dtype=float)
    ya = np.asarray([p.coords for p in ys], dtype=float)
    payoff = np.asarray(game.utility(xa[:, None, :], ya[None, :, :]), dtype=float)
    return MatrixGame(payoff, tuple(xs), tuple(ys))


def solve_zero_sum(
    mg: MatrixGame,
) -> tuple[FiniteMixedStrategy, FiniteMixedStrategy, float]:
    """Equilibrium ``(p*, q*, value)`` of the matrix game.

    The output satisfies the minimax certificate
    ``max_i (A q*)_i = value = min_j (p*^T A)_j`` within
    :data:`VALUE_TOL`; a violation raises :class:`ModelError`, and so does an
    LP that HiGHS does not solve to optimality.
    """
    A = mg.payoff
    m, k = A.shape
    # Variables (p, v); minimize -v.  Row j reads v - (A^T p)_j <= 0.
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = _scipy_linprog(
        cost,
        A_ub=np.hstack([-A.T, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.append(np.ones(m), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise ModelError(f"subgame LP ended with status {res.status}: {res.message}")
    p_raw = np.clip(res.x[:m], 0.0, None)
    q_raw = np.clip(-res.ineqlin.marginals, 0.0, None)
    value = float(res.x[-1])

    p_vec = p_raw / p_raw.sum()
    q_vec = q_raw / q_raw.sum()

    best_row = float((A @ q_vec).max())
    best_col = float((p_vec @ A).min())
    if abs(best_row - value) > VALUE_TOL or abs(best_col - value) > VALUE_TOL:
        raise ModelError(
            f"equilibrium certificate violated: max row {best_row}, "
            f"min col {best_col}, value {value}"
        )

    p = merge_duplicates(mg.row_strategies, p_vec)
    q = merge_duplicates(mg.col_strategies, q_vec)
    return p, q, value
