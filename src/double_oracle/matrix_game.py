"""Exact equilibria of finite zero-sum matrix games via linear programming.

The row player's LP is ``max v`` subject to ``A^T p >= v``, ``sum(p) = 1``,
``p >= 0``; the column player's strategy is the dual of the ``A^T p >= v``
rows.  A :class:`MatrixGame` holds one HiGHS model of that LP for its whole
life, built by :func:`subgame_matrix` with the game.  A new row strategy adds
one LP column, a new column strategy adds one LP row, the strategies of one
:func:`extend_subgame` call in one block per axis, and each later solve
starts from the previous optimal basis.  The minimax certificate below is
verified on the returned pair, independent of the solver.

HiGHS is reached through scipy's private compiled binding, loaded by
:mod:`._highs` without importing ``scipy.optimize``;
``tests/test_matrix_game.py`` checks that every method used here exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _lines(payoffs: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``[1, -payoffs[i]]`` at LP indices ``0, 1, ...`` for each row ``i``,
    as HiGHS's nonzero count, starts, indices and values."""
    m, n = payoffs.shape
    values = np.empty((m, n + 1))
    values[:, 0] = 1.0
    np.negative(payoffs, out=values[:, 1:])
    index = np.arange(values.size, dtype=np.int32) % (n + 1)
    starts = np.arange(0, values.size, n + 1, dtype=np.int32)
    return values.size, starts, index, values.ravel()


class _SubgameLP:
    """The row player's LP as one HiGHS model, grown a block of strategies at a time.

    Columns are ``v`` (free, cost -1, since HiGHS minimizes) and then one
    ``p_i >= 0`` per row strategy.  Rows are ``sum(p) = 1`` and then one
    ``v - sum_i A[i, j] p_i <= 0`` per column strategy ``j``.
    """

    def __init__(self, payoff: np.ndarray):
        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        _check(self.highs.addCols(1, [-1.0], [-np.inf], [np.inf], 0, [0], [], []))
        _check(self.highs.addRows(1, [1.0], [1.0], 0, [0], [], []))
        self.add_strategies(np.empty((payoff.shape[0], 0)), payoff)

    def add_strategies(self, new_rows: np.ndarray, new_cols: np.ndarray) -> None:
        """New row strategies, ``new_rows`` their payoffs against the held
        columns, then new columns, ``new_cols`` their payoffs from every row.

        Each new row strategy ``i`` is one LP column ``p_i``: 1 in
        ``sum(p) = 1`` and ``-A[i, j]`` in each column row.  Each new column
        strategy is one LP row ``v - sum_i A[i, j] p_i <= 0`` over every
        ``p_i``.  Each kind is one HiGHS call.
        """
        m, k = new_rows.shape[0], new_cols.shape[1]
        if m:
            zeros = np.zeros(m)
            _check(self.highs.addCols(m, zeros, zeros, np.full(m, np.inf), *_lines(new_rows)))
        if k:
            _check(self.highs.addRows(k, np.full(k, -np.inf), np.zeros(k), *_lines(new_cols.T)))

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
    """A double-oracle subgame: player 1's payoffs over the held strategy sets.

    ``payoff[i, j]`` is the utility of row strategy ``rows.points[i]``
    against column strategy ``cols.points[j]``; ``rows`` and ``cols`` are
    :class:`~.core.PointSet` s, so no two labels of an axis lie within
    :data:`~.core.MERGE_TOL`.  ``_lp`` is the HiGHS model of the game's LP.
    :func:`subgame_matrix` makes a game and :func:`extend_subgame` grows one,
    the payoffs, labels and LP together, in one block per axis and call.
    """

    payoff: np.ndarray
    rows: PointSet
    cols: PointSet
    _lp: _SubgameLP


def _block(game: GameDefinition, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``u(xs[i], ys[j])`` from one utility call, once it has that shape and
    finite entries; no call when ``xs`` or ``ys`` has no point."""
    shape = (len(xs), len(ys))
    if not all(shape):
        return np.empty(shape)
    payoff = np.asarray(game.utility(xs[:, None, :], ys[None, :, :]), dtype=float)
    if payoff.shape != shape:
        raise ModelError(f"utility returned shape {payoff.shape}, expected {shape}")
    if not np.isfinite(payoff).all():
        raise ModelError("payoff entries must be finite")
    return payoff


def _coords(pts: Sequence[StrategyPoint], like: np.ndarray) -> np.ndarray:
    """``pts`` as an array with the columns of ``like``, also when empty."""
    return np.array([pt.coords for pt in pts], dtype=float).reshape(len(pts), like.shape[1])


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
    """The subgame ``A[i][j] = u(x_i, y_j)`` evaluated by the game itself, over
    ``xs`` and ``ys`` less each point within MERGE_TOL of an earlier one.

    Its HiGHS model is built here.  A utility that returns another shape
    than ``(rows, cols)``, or a non-finite entry, raises :class:`ModelError`.
    """
    for pt in xs:
        require_in_space(game.space1, pt, "player 1")
    for pt in ys:
        require_in_space(game.space2, pt, "player 2")
    rows, cols = PointSet(xs), PointSet(ys)
    if not rows or not cols:
        raise ModelError("subgame needs at least one strategy per player")
    payoff = _block(game, rows.coords, cols.coords)
    return MatrixGame(payoff, rows, cols, _SubgameLP(payoff))


def extend_subgame(
    mg: MatrixGame,
    game: GameDefinition,
    xs: Sequence[StrategyPoint],
    ys: Sequence[StrategyPoint],
) -> int:
    """Add row strategies ``xs`` and column strategies ``ys`` to ``mg`` in place.

    Returns how many strategies were added.  A point its axis already holds,
    within :data:`~.core.MERGE_TOL`, is not added; an earlier point of the
    same sequence counts as held (:meth:`~.core.PointSet.lacking`, one
    lookup per axis).  Each axis grows by one block, and only the new
    entries are evaluated: one utility call gives the new rows over the
    held columns, and one gives every row, the new ones included, over the
    new columns, so the corners ``u(x, y)`` land in the new columns.  Both
    blocks must have the right shape and finite entries before anything is
    appended; otherwise :class:`ModelError` is raised and ``mg`` is left as
    it was.  Then the LP, the payoffs and each axis grow in one step.
    """
    for x in xs:
        require_in_space(game.space1, x, "player 1")
    for y in ys:
        require_in_space(game.space2, y, "player 2")
    new_x, new_y = mg.rows.lacking(xs), mg.cols.lacking(ys)
    x_coords, y_coords = _coords(new_x, mg.rows.coords), _coords(new_y, mg.cols.coords)
    new_rows = _block(game, x_coords, mg.cols.coords)
    all_rows = np.vstack([mg.rows.coords, x_coords]) if new_x else mg.rows.coords
    new_cols = _block(game, all_rows, y_coords)
    mg._lp.add_strategies(new_rows, new_cols)
    if new_x:
        mg.payoff = np.vstack([mg.payoff, new_rows])
        mg.rows._extend(new_x)
    if new_y:
        mg.payoff = np.hstack([mg.payoff, new_cols])
        mg.cols._extend(new_y)
    return len(new_x) + len(new_y)


def solve_zero_sum(
    mg: MatrixGame,
) -> tuple[FiniteMixedStrategy, FiniteMixedStrategy, float]:
    """Equilibrium ``(p*, q*, value)`` of the matrix game.

    Each call re-solves the game's HiGHS model from the previous call's
    basis, if any.  ``value`` is ``p*^T A q*``, summed from the held
    payoffs over the mixtures' atoms.
    The LP optimum ``v`` must satisfy the minimax certificate
    ``max_i (A q*)_i = v = min_j (p*^T A)_j`` within :data:`VALUE_TOL`; a
    violation raises :class:`ModelError`, and so does an LP that HiGHS does
    not solve to optimality, warm or cold.
    """
    A = mg.payoff
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
