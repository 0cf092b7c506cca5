"""One-dimensional benchmark games and the grid-search best-response oracle."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    IntervalUnion,
    StrategyPoint,
)
from .errors import ModelError, ParameterError
from .oracles import OracleAnswer

DEFAULT_RESOLUTION = 1e-4
# Conservative Lipschitz bounds (both coordinates) for the built-in games.
POLYNOMIAL_LIPSCHITZ = 16.0
TOWNSEND_LIPSCHITZ = 20.0
# Grid steps per cell of GridSearchOracle's pruned search.
CELL_POINTS = 64
# Relative float slack of its cell bound test: a cell is skipped only when
# its bound misses the best endpoint value by more than this times the
# payoff magnitudes, so rounding in the sums never drops the optimum.
BOUND_SLACK = 1e-12


def polynomial_utility(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x1 = x[..., 0]
    y1 = y[..., 0]
    return 5.0 * x1 * y1 - 2.0 * x1**2 - 2.0 * x1 * y1**2 - y1


def make_polynomial_game() -> GameDefinition:
    """Degree-(2, 2) polynomial game on [-1, 1]^2.

    Value -0.48; player 1's optimum is the pure strategy 0.2, player 2 mixes
    the endpoints 1 and -1 with weights 0.78 and 0.22.
    """
    unit = Box((-1.0,), (1.0,))
    # u_xx = -4 and u_yy = -4x, so |u_xx| <= 4 and |u_yy| <= 4 on the square.
    return GameDefinition(
        unit, unit, polynomial_utility, name="g1-polynomial", curvature=(4.0, 4.0)
    )


def townsend_utility(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x1 = x[..., 0]
    y1 = y[..., 0]
    return -np.cos((x1 - 0.1) * y1) ** 2 - x1 * np.sin(3.0 * x1 + y1)


def make_townsend_game() -> GameDefinition:
    """Zero-sum game built from the Townsend test function; highly multimodal."""
    # With -cos(z)^2 = -(1 + cos 2z)/2 and z = (x - 0.1) y:
    #   u_xx = 2 y^2 cos 2z - 6 cos(3x + y) + 9x sin(3x + y),
    #     so |u_xx| <= 2 * 2.5^2 + 6 + 9 * 2.5 = 41;
    #   u_yy = 2 (x - 0.1)^2 cos 2z + x sin(3x + y),
    #     so |u_yy| <= 2 * 2.4^2 + 2.5 = 14.02 <= 14.1.
    return GameDefinition(
        Box((-2.25,), (2.5,)),
        Box((-2.5,), (1.75,)),
        townsend_utility,
        name="g2-townsend",
        curvature=(41.0, 14.1),
    )


def duplicate_first_axis(base: GameDefinition, name: str = "") -> GameDefinition:
    """Tile player 1's interval over the disjoint union [0, 1] + [2, 3].

    Each copy is an affine reparametrization of the original interval, so the
    game value is unchanged while every player 1 best response acquires a
    twin in the other tile.  Useful as a stress test for solvers that assume
    unique best responses.
    """
    space1 = base.space1
    if not isinstance(space1, Box) or space1.dim != 1:
        raise ParameterError("only 1-D box games can be tiled")
    lo, hi = space1.lower[0], space1.upper[0]

    def tiled(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        s = x[..., 0]
        s = np.where(s >= 1.5, s - 2.0, s)
        mapped = lo + (hi - lo) * np.clip(s, 0.0, 1.0)
        return base.utility(mapped[..., None], y)

    # Inside each tile x = lo + (hi - lo) s, so d^2u/ds^2 = (hi - lo)^2 u_xx;
    # the jump between the tiles lies in the gap, which no grid cell spans.
    curvature = None
    if base.curvature is not None:
        curvature = (base.curvature[0] * (hi - lo) ** 2, base.curvature[1])
    return GameDefinition(
        IntervalUnion(((0.0, 1.0), (2.0, 3.0))),
        base.space2,
        tiled,
        name=name or (base.name + "-tiled"),
        curvature=curvature,
    )


class _Column:
    """One opponent atom's payoffs over the grid, filled cell by cell.

    ``ends`` holds the payoffs at the cell endpoints.  ``values`` has one
    slot per grid point; it holds the inner points of cell ``c`` once
    ``filled[c]`` is set, and every point once ``full`` is.  Until then the
    endpoints stay out of ``values``: writing them would touch every memory
    page of a column that most queries read only a few cells of.
    ``scale``, the largest endpoint magnitude, sizes the float slack of the
    cell bound test.
    """

    def __init__(self, ends: np.ndarray, values: np.ndarray, filled: np.ndarray, full: bool):
        self.ends = ends
        self.values = values
        self.filled = filled
        self.full = full
        self.scale = float(np.max(np.abs(ends)))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index runs ``starts[i] : starts[i] + lengths[i]``, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


class GridSearchOracle:
    """Best response by search over a uniform grid, skipping cells that cannot win.

    The grid covers the responding player's interval(s) with spacing at most
    ``resolution``, endpoints included.  The answer is the grid point of
    best value, ties resolved to the smallest coordinate.  When a Lipschitz
    bound ``L`` for the utility in the responder's coordinate is supplied,
    the declared accuracy is ``L * resolution / 2``; without one the answer
    is only guaranteed optimal over the grid itself and the accuracy is
    reported as 0.

    Each interval of the grid is cut into cells of :data:`CELL_POINTS` grid
    steps.  A query against a ``k``-atom mixture first sums the atoms'
    payoffs at the cell endpoints, in the query's atom order.  With a
    Lipschitz bound ``L`` and the game's declared ``curvature`` bound ``M``
    (see :class:`~.core.GameDefinition`), the best value inside a cell of
    width ``w`` whose endpoints sum to ``s_a`` and ``s_b`` is at most
    ``min((s_a + s_b)/2 + L w/2, max(s_a, s_b) + M w^2/8)`` for the
    maximizer (mirrored for the minimizer), scaled by the total weight.  A
    cell whose bound falls short of the best endpoint value by more than a
    float slack cannot hold the grid optimum and is skipped; only the kept
    cells are filled, summed and searched.  The answer is the same grid
    point and the same value, bit for bit, as a full scan, provided ``L``
    and ``M`` are valid bounds and the utility computes each point on its
    own (as NumPy's elementwise functions do).  With neither bound
    declared every bound is infinite, so every cell is kept and each
    atom's column is filled in full.  A NaN payoff at a searched point, or
    an infinite best value, raises :class:`~.errors.ModelError`.

    Payoffs are cached per distinct opponent atom in one column of grid
    length, filled lazily: the cell endpoints when the atom first appears,
    then each cell the first time a query keeps it.  A query's values do
    not depend on which cells earlier queries filled.  ``evaluations``
    counts the utility points evaluated so far.

    Fictitious play, whose opponent mixture changes by one count a round,
    uses :meth:`running` instead: a round then costs one column add and one
    argmax/argmin over the grid, whatever the support.  The running sum
    lives in the returned responder, not in the oracle, so :meth:`respond`
    stays a pure function of its query.  The responder completes each
    column it adds, in one utility call, in the same cache.
    """

    def __init__(
        self,
        game: GameDefinition,
        player: int,
        resolution: float = DEFAULT_RESOLUTION,
        lipschitz: float | None = None,
    ):
        if player not in (1, 2):
            raise ParameterError(f"player must be 1 or 2, got {player!r}")
        if not (math.isfinite(resolution) and resolution > 0):
            raise ParameterError(f"resolution must be finite and > 0, got {resolution}")
        if lipschitz is not None and not (math.isfinite(lipschitz) and lipschitz >= 0):
            raise ParameterError(f"lipschitz bound must be finite and >= 0, got {lipschitz}")
        self.game = game
        self.player = player
        self.resolution = float(resolution)
        self.lipschitz = lipschitz
        space = game.space1 if player == 1 else game.space2
        self._grid = np.sort(space.grid_points(resolution))
        self._grid_pts = self._grid[:, None]
        self._columns: dict[tuple[float, ...], _Column] = {}
        self.evaluations = 0
        self.accuracy = 0.0 if lipschitz is None else lipschitz * resolution / 2.0

        # Cell endpoints every CELL_POINTS steps and at each interval's
        # ends; a cell joins consecutive endpoints of one interval, so no
        # cell spans a gap of an IntervalUnion.
        firsts = [0]
        if isinstance(space, IntervalUnion):
            firsts = np.searchsorted(self._grid, [a for a, _ in space.pieces]).tolist()
        lasts = firsts[1:] + [self._grid.size]
        ends: list[int] = []
        left: list[int] = []
        for first, stop in zip(firsts, lasts):
            piece = list(range(first, stop - 1, CELL_POINTS)) + [stop - 1]
            left += range(len(ends), len(ends) + len(piece) - 1)
            ends += piece
        self._ends = np.asarray(ends, dtype=np.intp)
        self._left = np.asarray(left, dtype=np.intp)
        self._cells = np.arange(self._left.size)
        lo, hi = self._ends[self._left], self._ends[self._left + 1]
        self._inner_start = lo + 1
        self._inner_len = hi - lo - 1
        width = self._grid[hi] - self._grid[lo]
        curvature = None if game.curvature is None else game.curvature[player - 1]
        self._lipschitz_pad = None if lipschitz is None else lipschitz * width / 2.0
        self._curvature_pad = None if curvature is None else curvature * width**2 / 8.0

    def _evaluate(self, atom: StrategyPoint, idx) -> np.ndarray:
        pts = self._grid_pts[idx]
        other = atom.array()
        if self.player == 1:
            out = self.game.utility(pts, other)
        else:
            out = self.game.utility(other, pts)
        self.evaluations += len(pts)
        return np.asarray(out, dtype=float)

    def _entry(self, atom: StrategyPoint, whole: bool = False) -> _Column:
        """The atom's column.

        A new column is evaluated in one utility call: at the cell
        endpoints, or at every grid point if ``whole``.
        """
        col = self._columns.get(atom.coords)
        if col is None:
            values = np.empty(self._grid.size)
            if whole:
                values[:] = self._evaluate(atom, slice(None))
                ends = values[self._ends]
            else:
                ends = self._evaluate(atom, self._ends)
            col = _Column(ends, values, np.full(self._left.size, whole), whole)
            self._columns[atom.coords] = col
        return col

    def _fill(self, atom: StrategyPoint, col: _Column, cells: np.ndarray) -> None:
        """Fill the inner points of those ``cells`` not filled yet, in one utility call."""
        todo = cells[~col.filled[cells]]
        if todo.size:
            idx = _ranges(self._inner_start[todo], self._inner_len[todo])
            col.values[idx] = self._evaluate(atom, idx)
            col.filled[todo] = True

    def _column(self, atom: StrategyPoint) -> np.ndarray:
        """The atom's payoffs at every grid point."""
        col = self._entry(atom, whole=True)
        if not col.full:
            self._fill(atom, col, self._cells)
            col.values[self._ends] = col.ends
            col.full = True
        return col.values

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer:
        columns = [self._entry(atom) for atom in opponent.atoms]
        weights = opponent.weights
        ends = np.zeros(self._ends.size)
        for col, weight in zip(columns, weights):
            ends += weight * col.ends
        # Bound the maximizer's sum; the minimizer's is the negated sum.
        # Without L or M every bound is infinite and every cell is kept.
        side = ends if self.player == 1 else -ends
        a, b = side[self._left], side[self._left + 1]
        total = math.fsum(weights)
        bound = np.full(self._left.size, np.inf)
        if self._lipschitz_pad is not None:
            bound = np.minimum(bound, (a + b) / 2.0 + total * self._lipschitz_pad)
        if self._curvature_pad is not None:
            bound = np.minimum(bound, np.maximum(a, b) + total * self._curvature_pad)
        # Rounding in the sums scales with the payoffs summed, not with
        # their total, which may cancel.  A bound close to the best value
        # has pads of at most twice these payoffs, so they need no slack.
        slack = BOUND_SLACK * math.fsum(w * col.scale for col, w in zip(columns, weights))
        kept = np.flatnonzero(bound >= side.max() - slack)

        idx = _ranges(self._inner_start[kept], self._inner_len[kept])
        values = np.zeros(idx.size)
        for atom, col, weight in zip(opponent.atoms, columns, weights):
            self._fill(atom, col, kept)
            if idx.size:
                values += weight * col.values[idx]
        return self._best(np.concatenate((ends, values)), 1.0, np.concatenate((self._ends, idx)))

    def _best(self, values: np.ndarray, total: float, idx: np.ndarray | None = None) -> OracleAnswer:
        # Best on the undivided sum: dividing first could round distinct
        # values into ties.  Ties go to the smallest coordinate; ``idx``
        # gives the grid index of each value when they are not the whole grid.
        # A NaN among the values makes the best NaN on either path.
        if idx is None:
            i = int(np.argmax(values)) if self.player == 1 else int(np.argmin(values))
            best = values[i]
        else:
            best = values.max() if self.player == 1 else values.min()
        if not math.isfinite(best):
            raise ModelError(f"utility returned {best} at a searched grid point")
        if idx is not None:
            i = int(idx[values == best].min())
        return OracleAnswer(StrategyPoint((float(self._grid[i]),)), float(best) / total)

    def running(self) -> RunningGridResponse:
        """A fresh best responder to a count-weighted, growing opponent history."""
        return RunningGridResponse(self)


class RunningGridResponse:
    """Best response to the uniform mixture over a growing list of atoms.

    Holds ``S = sum_j column(atom_j)`` over every :meth:`add` (an atom added
    twice counts twice) and answers against ``S / count``.
    """

    def __init__(self, oracle: GridSearchOracle):
        self._oracle = oracle
        self.sum = np.zeros(oracle._grid.size)
        self.count = 0

    def add(self, atom: StrategyPoint) -> None:
        self.sum += self._oracle._column(atom)
        self.count += 1

    def respond(self) -> OracleAnswer:
        return self._oracle._best(self.sum, self.count)


def grid_best_response(
    opponent: FiniteMixedStrategy,
    game: GameDefinition,
    player: int,
    resolution: float = DEFAULT_RESOLUTION,
    lipschitz: float | None = None,
) -> OracleAnswer:
    """One-shot form of :class:`GridSearchOracle` for a single query."""
    return GridSearchOracle(game, player, resolution, lipschitz).respond(opponent)
