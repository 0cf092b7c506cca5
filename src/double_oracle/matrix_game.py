"""Exact equilibria of finite zero-sum matrix games via linear programming.

The row player's LP is ``max v`` subject to ``A^T p >= v``, ``sum(p) = 1``,
``p >= 0``; the column player's strategy is the dual of the ``A^T p >= v``
rows.  A :class:`MatrixGame` holds one HiGHS model of that LP for its whole
life, built by its first :func:`solve_zero_sum`.  A new row strategy adds
one LP column, a new column strategy adds one LP row, and each later solve
starts from the previous optimal basis.  The minimax certificate below is
verified on the returned pair, independent of the solver.

HiGHS is reached through scipy's private compiled binding, loaded by
:mod:`._highs` without importing ``scipy.optimize``;
``tests/test_matrix_game.py`` checks that every method used here exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._highs import HighsModelStatus, HighsStatus, _Highs
from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    PointSet,
    StrategyPoint,
    require_in_space,
)
from .errors import ModelError

# Certificate residual above which solve_zero_sum raises.  The engine gives
# an oracle value the same slack against the subgame value.
VALUE_TOL = 1e-6


def _check(status) -> None:
    if status == HighsStatus.kError:
        raise ModelError("HiGHS rejected a subgame LP update")


class _SubgameLP:
    """The row player's LP as one HiGHS model, grown a strategy at a time.

    Columns are ``v`` (free, cost -1, since HiGHS minimizes) and then one
    ``p_i >= 0`` per row strategy.  Rows are ``sum(p) = 1`` and then one
    ``v - sum_i A[i, j] p_i <= 0`` per column strategy ``j``.
    """

    def __init__(self, payoff: np.ndarray):
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        _check(self.highs.addCol(-1.0, -np.inf, np.inf, 0, [], []))
        _check(self.highs.addRow(1.0, 1.0, 0, [], []))
        for _ in range(payoff.shape[0]):
            self.add_row_strategy(np.empty(0))
        for column in payoff.T:
            self.add_col_strategy(column)

    def add_row_strategy(self, payoffs: np.ndarray) -> None:
        """New ``p_i``: 1 in ``sum(p) = 1`` and ``-A[i, j]`` in each column row."""
        nz = payoffs.size + 1
        _check(self.highs.addCol(
            0.0, 0.0, np.inf, nz, np.arange(nz, dtype=np.int32), np.append(1.0, -payoffs)
        ))

    def add_col_strategy(self, payoffs: np.ndarray) -> None:
        """New row ``v - sum_i A[i, j] p_i <= 0`` over every ``p_i``."""
        nz = payoffs.size + 1
        _check(self.highs.addRow(
            -np.inf, 0.0, nz, np.arange(nz, dtype=np.int32), np.append(1.0, -payoffs)
        ))

    def solve(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Primal ``p``, dual ``q`` and ``v`` at an optimal basis.

        A solve that does not end optimal, which can happen from a stale
        warm-start basis, is repeated once from scratch.
        """
        highs = self.highs
        highs.run()
        if highs.getModelStatus() != HighsModelStatus.kOptimal:
            highs.clearSolver()
            highs.run()
            status = highs.getModelStatus()
            if status != HighsModelStatus.kOptimal:
                raise ModelError(
                    f"subgame LP ended with HiGHS status {highs.modelStatusToString(status)!r}"
                )
        solution = highs.getSolution()
        x = np.asarray(solution.col_value)
        return x[1:], -np.asarray(solution.row_dual)[1:], float(x[0])


@dataclass
class MatrixGame:
    """Payoff matrix for player 1 plus the pure strategies labeling its axes.

    ``rows`` and ``cols`` are :class:`~.core.PointSet` s made from the given
    labels, so a label within :data:`~.core.MERGE_TOL` of another on its
    axis raises :class:`ModelError`.  The game grows in place through
    :meth:`add_row` and :meth:`add_col`, and its LP model, once
    :func:`solve_zero_sum` has built it, grows with it.
    """

    payoff: np.ndarray
    rows: PointSet
    cols: PointSet
    _lp: _SubgameLP | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.payoff = np.asarray(self.payoff, dtype=float)
        if self.payoff.ndim != 2 or self.payoff.size == 0:
            raise ModelError(f"payoff must be a nonempty matrix, got shape {self.payoff.shape}")
        if not np.all(np.isfinite(self.payoff)):
            raise ModelError("payoff entries must be finite")
        given = (len(self.rows), len(self.cols))
        self.rows, self.cols = PointSet(self.rows), PointSet(self.cols)
        if given != self.payoff.shape or (len(self.rows), len(self.cols)) != given:
            raise ModelError("strategy labels must match the payoff shape and lie MERGE_TOL apart")

    def add_row(self, strategy: StrategyPoint, payoffs: Sequence[float]) -> None:
        """Append row strategy ``strategy`` earning ``payoffs[j]`` against column ``j``."""
        row = _new_line(payoffs, self.payoff.shape[1])
        _add_label(self.rows, strategy, "row")
        self.payoff = np.vstack([self.payoff, row])
        if self._lp is not None:
            self._lp.add_row_strategy(row)

    def add_col(self, strategy: StrategyPoint, payoffs: Sequence[float]) -> None:
        """Append column strategy ``strategy`` paying ``payoffs[i]`` against row ``i``."""
        col = _new_line(payoffs, self.payoff.shape[0])
        _add_label(self.cols, strategy, "column")
        self.payoff = np.column_stack([self.payoff, col])
        if self._lp is not None:
            self._lp.add_col_strategy(col)


def _add_label(labels: PointSet, strategy: StrategyPoint, axis: str) -> None:
    held = len(labels)
    if labels.add(strategy) != held:
        raise ModelError(f"{axis} strategy {strategy.coords} is within MERGE_TOL of a held one")


def _new_line(payoffs: Sequence[float], size: int) -> np.ndarray:
    line = np.asarray(payoffs, dtype=float)
    if line.shape != (size,):
        raise ModelError(f"expected {size} payoffs, got shape {line.shape}")
    if not np.all(np.isfinite(line)):
        raise ModelError("payoff entries must be finite")
    return line


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
    """Payoff matrix ``A[i][j] = u(x_i, y_j)`` evaluated by the game itself, over
    ``xs`` and ``ys`` less each point within MERGE_TOL of an earlier one."""
    for pt in xs:
        require_in_space(game.space1, pt, "player 1")
    for pt in ys:
        require_in_space(game.space2, pt, "player 2")
    rows, cols = PointSet(xs), PointSet(ys)
    if not rows or not cols:
        raise ModelError("subgame needs at least one strategy per player")
    payoff = game.utility(rows.coords[:, None, :], cols.coords[None, :, :])
    return MatrixGame(np.asarray(payoff, dtype=float), rows.points, cols.points)


def extend_subgame(
    mg: MatrixGame, game: GameDefinition, x: StrategyPoint, y: StrategyPoint
) -> None:
    """Add row strategy ``x`` and column strategy ``y`` to ``mg`` in place.

    A point its axis already holds, within :data:`~.core.MERGE_TOL`, is not
    added.  Only the new entries are evaluated: ``u(x, .)`` over the held
    columns, then ``u(., y)`` over every row, ``x`` included, so the corner
    ``u(x, y)`` lands in the new column.
    """
    require_in_space(game.space1, x, "player 1")
    require_in_space(game.space2, y, "player 2")
    if mg.rows.index(x) is None:
        mg.add_row(x, game.utility(x.array()[None, :], mg.cols.coords))
    if mg.cols.index(y) is None:
        mg.add_col(y, game.utility(mg.rows.coords, y.array()[None, :]))


def solve_zero_sum(
    mg: MatrixGame,
) -> tuple[FiniteMixedStrategy, FiniteMixedStrategy, float]:
    """Equilibrium ``(p*, q*, value)`` of the matrix game.

    The first call builds the game's HiGHS model; later calls re-solve it
    from the previous basis after the game has grown.  ``value`` is
    ``p*^T A q*``, summed from the held payoffs over the mixtures' atoms.
    The LP optimum ``v`` must satisfy the minimax certificate
    ``max_i (A q*)_i = v = min_j (p*^T A)_j`` within :data:`VALUE_TOL`; a
    violation raises :class:`ModelError`, and so does an LP that HiGHS does
    not solve to optimality, warm or cold.
    """
    A = mg.payoff
    if mg._lp is None:
        mg._lp = _SubgameLP(A)
    p_raw, q_raw, lp_value = mg._lp.solve()
    p_raw = np.clip(p_raw, 0.0, None)
    q_raw = np.clip(q_raw, 0.0, None)

    p_vec = p_raw / p_raw.sum()
    q_vec = q_raw / q_raw.sum()

    best_row = float((A @ q_vec).max())
    best_col = float((p_vec @ A).min())
    if abs(best_row - lp_value) > VALUE_TOL or abs(best_col - lp_value) > VALUE_TOL:
        raise ModelError(
            f"equilibrium certificate violated: max row {best_row}, "
            f"min col {best_col}, value {lp_value}"
        )

    rows, p = _mixture(mg.rows, p_vec)
    cols, q = _mixture(mg.cols, q_vec)
    value = float(p.weights_array() @ A[np.ix_(rows, cols)] @ q.weights_array())
    return p, q, value


def _mixture(labels: PointSet, weights: np.ndarray) -> tuple[np.ndarray, FiniteMixedStrategy]:
    """Positive-weight indices, and their labels' mixture renormalized as merge_duplicates does."""
    keep = np.flatnonzero(weights > 0.0)
    kept = weights[keep].tolist()
    total = math.fsum(kept)
    atoms = tuple(labels.points[i] for i in keep)
    return keep, FiniteMixedStrategy(atoms, tuple(w / total for w in kept))
