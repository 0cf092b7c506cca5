"""One-dimensional benchmark games and the grid-search best-response oracle."""

from __future__ import annotations

import math
import weakref

import numpy as np

from .core import (
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    IntervalUnion,
    StrategyPoint,
)
from .errors import ModelError, ParameterError
from .oracles import OracleAnswer, _check_player

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
# Most peaks GridSearchOracle returns in OracleAnswer.extra.  At 8, do-1d's
# iterations did not fall (248 -> 249 at seed 1) and its strategy sets grew.
EXTRA_PEAKS = 2

# Sorted, read-only grids by (repr of the space, resolution), shared by the
# oracles that hold them; the repr tells -0.0 from 0.0, which == does not.
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared_grid(space: Box | IntervalUnion, resolution: float) -> np.ndarray:
    """The sorted grid of ``space`` at ``resolution``, built once while some oracle holds it."""
    key = (repr(space), resolution)
    grid = _GRIDS.get(key)
    if grid is None:
        grid = np.sort(space.grid_points(resolution))
        grid.flags.writeable = False
        _GRIDS[key] = grid
    return grid


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


def duplicate_first_axis(base: GameDefinition) -> GameDefinition:
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
        name=base.name + "-tiled",
        curvature=curvature,
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index runs ``starts[i] : starts[i] + lengths[i]``, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _row_sums(table: np.ndarray) -> np.ndarray:
    """``0.0 + table[0] + table[1] + ...``, row after row, as repeated ``+=`` gives it.

    NumPy reduces a C-contiguous table over its slow axis one row at a
    time.  A one-column table has no slow axis and would be summed
    pairwise, so it goes through ``accumulate``, which is sequential.
    """
    if table.shape[1] == 1:
        return np.add.accumulate(np.append(0.0, table[:, 0]))[-1:]
    return np.add.reduce(table, axis=0, initial=0.0)


def _grown(array: np.ndarray, used: int, size: int) -> np.ndarray:
    """``array``, or a copy of its first ``used`` rows with room for ``size`` rows.

    A copy at least doubles the capacity, so it never exceeds twice the rows
    asked for, and growing row by row copies each row O(1) times on average.
    """
    if size <= len(array):
        return array
    out = np.empty((max(size, 2 * len(array)),) + array.shape[1:], dtype=array.dtype)
    out[:used] = array[:used]
    return out


class GridSearchOracle:
    """Best response by search over a uniform grid, skipping cells that cannot win.

    The grid covers the responding player's interval(s) with spacing at most
    ``resolution``, endpoints included; a space that is not a 1-D
    :class:`~.core.Box` or an :class:`~.core.IntervalUnion` raises
    :class:`~.errors.ParameterError`.  The answer is the grid point of
    best value, ties resolved to the smallest coordinate.  Oracles over equal
    spaces at equal resolutions share one read-only grid.  When a Lipschitz
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
    atom is filled on every cell.  A NaN payoff at a searched point, or
    an infinite best value, raises :class:`~.errors.ModelError`.

    The answer's ``extra`` holds up to :data:`EXTRA_PEAKS` cell
    endpoints other than its point: the peaks of the endpoint sums along
    each interval, that is their local maxima for the maximizer and local
    minima for the minimizer, best first, ties to the smaller coordinate.
    A run of equal sums is one peak, at its first endpoint, and a peak with
    a non-finite sum is left out.  They cost no utility evaluations.

    Payoffs are cached per distinct opponent atom in one packed store,
    filled lazily: an atom's payoffs at the cell endpoints when it first
    appears, then a cell's inner points the first time a query keeps that
    cell for that atom.  The inner points of a filled (atom, cell) pair are
    one row of ``CELL_POINTS - 1`` values, zero past the end of a short
    cell, and an atoms-by-cells slot table gives each pair's row.  Every
    store array starts empty and doubles when full, so the cache grows with
    the pairs filled, not with the grid.  A query's values do not depend on
    which cells earlier queries filled.  ``evaluations`` counts the utility
    points evaluated so far.

    Fictitious play, whose opponent mixture changes by one count a round,
    uses :meth:`running` instead: a responder that keeps the running
    payoff sum at the cell endpoints and on the cells the last round kept,
    prunes with the same bound, and fills a new atom on those cells only
    (see :class:`RunningGridResponse`).  The running sum lives in the
    responder, not in the oracle, so an answer of :meth:`respond` depends
    only on its query; both fill the same store.  Every query changes the
    store and ``evaluations``, so one oracle must not be queried from two
    threads at once.
    """

    def __init__(
        self,
        game: GameDefinition,
        player: int,
        resolution: float = DEFAULT_RESOLUTION,
        lipschitz: float | None = None,
    ):
        if not (math.isfinite(resolution) and resolution > 0):
            raise ParameterError(f"resolution must be finite and > 0, got {resolution}")
        if lipschitz is not None and not (math.isfinite(lipschitz) and lipschitz >= 0):
            raise ParameterError(f"lipschitz bound must be finite and >= 0, got {lipschitz}")
        self.game = game
        self.player = _check_player(player)
        self.resolution = float(resolution)
        self.lipschitz = lipschitz
        space = game.space1 if player == 1 else game.space2
        if not isinstance(space, (Box, IntervalUnion)):
            raise ParameterError(f"grid search needs an interval strategy space, got {space}")
        self._grid = _shared_grid(space, self.resolution)
        self._grid_pts = self._grid[:, None]
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
        # The endpoints that begin an interval: those that end no cell.
        self._piece_first = np.ones(self._ends.size, dtype=bool)
        self._piece_first[self._left + 1] = False
        lo, hi = self._ends[self._left], self._ends[self._left + 1]
        self._inner_start = lo + 1
        self._inner_len = hi - lo - 1
        # Cells with fewer inner points: at most the last cell of each interval.
        self._short = np.flatnonzero(self._inner_len < CELL_POINTS - 1).tolist()
        width = self._grid[hi] - self._grid[lo]
        curvature = None if game.curvature is None else game.curvature[player - 1]
        self._lipschitz_pad = None if lipschitz is None else lipschitz * width / 2.0
        self._curvature_pad = None if curvature is None else curvature * width**2 / 8.0

        # The payoff store, indexed by atom id in first-query order.
        self._ids: dict[tuple[float, ...], int] = {}
        self._coords: list[tuple[float, ...]] = []
        self._end_values = np.empty((0, self._ends.size))  # payoffs at the cell endpoints
        self._scale = np.empty(0)  # largest endpoint magnitude, for the bound test's slack
        self._slot = np.empty((0, self._left.size), dtype=np.int32)  # row of each cell, or -1
        self._rows = np.empty((0, CELL_POINTS - 1))
        self._used = 0  # rows of ``_rows`` in use

    def _evaluate(self, others: np.ndarray, idx) -> np.ndarray:
        """Payoffs at the grid points ``idx`` against ``others``, one opponent point per grid point."""
        pts = self._grid_pts[idx]
        if self.player == 1:
            out = self.game.utility(pts, others)
        else:
            out = self.game.utility(others, pts)
        self.evaluations += len(pts)
        return np.asarray(out, dtype=float)

    def _id(self, atom: StrategyPoint) -> int:
        """The atom's id in the store, evaluated at the cell endpoints when new."""
        i = self._ids.get(atom.coords)
        if i is None:
            ends = self._evaluate(atom.array()[None, :], self._ends)
            i = len(self._coords)
            self._end_values = _grown(self._end_values, i, i + 1)
            self._scale = _grown(self._scale, i, i + 1)
            self._slot = _grown(self._slot, i, i + 1)
            self._end_values[i] = ends
            self._scale[i] = np.max(np.abs(ends))
            self._slot[i] = -1
            self._ids[atom.coords] = i
            self._coords.append(atom.coords)
        return i

    def _fill(self, ids: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """``_rows`` indices of the ``ids`` x ``cells`` pairs.

        Pairs the store lacks are filled first, in one utility call and one block write.
        """
        slots = self._slot[ids[:, None], cells]
        # Positions in ``ids`` and ``cells`` of the missing pairs, atom by atom.
        atom, at = np.nonzero(slots < 0)
        if not atom.size:
            return slots
        cell = cells[at]
        lengths = self._inner_len[cell]
        idx = _ranges(self._inner_start[cell], lengths)
        start, stop = self._used, self._used + atom.size
        self._rows = _grown(self._rows, start, stop)
        block = self._rows[start:stop]
        inner = np.arange(CELL_POINTS - 1) < lengths[:, None]
        block[~inner] = 0.0
        if idx.size:
            others = np.array([self._coords[i] for i in ids])[atom]
            block[inner] = self._evaluate(np.repeat(others, lengths, axis=0), idx)
        slots[atom, at] = self._slot[ids[atom], cell] = np.arange(start, stop)
        self._used = stop
        return slots

    def _kept(self, ends: np.ndarray, total: float, scale: float) -> np.ndarray:
        """The cells that can hold the grid optimum of a weighted payoff sum.

        ``ends`` is the sum at the cell endpoints, ``total`` the sum of its
        weights and ``scale`` the weighted sum of the summed atoms'
        ``scale``.  Rounding in the sums scales with the payoffs summed, not
        with their total, which may cancel; a bound close to the best value
        has pads of at most twice these payoffs, so they need no slack.
        Without L or M every bound is infinite and every cell is kept.
        """
        # Bound the maximizer's sum; the minimizer's is the negated sum.
        side = ends if self.player == 1 else -ends
        a, b = side[self._left], side[self._left + 1]
        bound = np.full(self._left.size, np.inf)
        if self._lipschitz_pad is not None:
            bound = np.minimum(bound, (a + b) / 2.0 + total * self._lipschitz_pad)
        if self._curvature_pad is not None:
            bound = np.minimum(bound, np.maximum(a, b) + total * self._curvature_pad)
        return np.flatnonzero(bound >= side.max() - BOUND_SLACK * scale)

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer:
        ids = np.array([self._id(atom) for atom in opponent.atoms])
        weights = opponent.weights_array()
        # Weighted payoffs summed atom after atom, in the query's order.
        ends = _row_sums(weights[:, None] * self._end_values[ids])
        kept = self._kept(ends, math.fsum(opponent.weights), math.fsum(weights * self._scale[ids]))
        slots = self._fill(ids, kept)  # before reading _rows, which it may replace
        table = self._rows[slots]
        table *= weights[:, None, None]
        inner = _row_sums(table.reshape(ids.size, -1)).reshape(kept.size, CELL_POINTS - 1)
        i, value = self._best(ends, inner, kept, 1.0)
        return OracleAnswer(self._point(i), value, self._extras(ends, i))

    def _point(self, i: int) -> StrategyPoint:
        return StrategyPoint((float(self._grid[i]),))

    def _best(
        self, ends: np.ndarray, inner: np.ndarray, cells: np.ndarray, total: float
    ) -> tuple[int, float]:
        """Grid index and value of the best of the sums ``ends`` at the endpoints
        and the padded rows ``inner`` of ``cells``, each sum divided by ``total``.

        ``cells`` is ascending.
        """
        values = np.concatenate((ends, inner.ravel()))
        steps = self._inner_start[cells][:, None] + np.arange(CELL_POINTS - 1)
        idx = np.concatenate((self._ends, steps.ravel()))
        worst = -np.inf if self.player == 1 else np.inf
        for c in self._short:  # the padding of a short cell must never be best
            j = cells.searchsorted(c)
            if j < cells.size and cells[j] == c:
                row = ends.size + j * (CELL_POINTS - 1)
                values[row + self._inner_len[c] : row + CELL_POINTS - 1] = worst
        # Best on the undivided sum: dividing first could round distinct
        # values into ties.  Ties go to the smallest grid index.  A NaN
        # among the values makes the best NaN.
        best = values.max() if self.player == 1 else values.min()
        if not math.isfinite(best):
            raise ModelError(f"utility returned {best} at a searched grid point")
        return int(idx[values == best].min()), float(best) / total

    def _extras(self, ends: np.ndarray, answer: int) -> tuple[StrategyPoint, ...]:
        """The best peaks of the endpoint sums ``ends`` other than grid index ``answer``."""
        side = ends if self.player == 1 else -ends
        # Runs of equal sums within one interval, by their first endpoint.
        first = np.flatnonzero(self._piece_first | np.append(True, side[1:] != side[:-1]))
        vals = side[first]
        opens = self._piece_first[first]  # the run begins its interval
        closes = np.append(opens[1:], True)  # the run ends its interval
        above_left = opens | np.append(True, vals[:-1] < vals[1:])
        above_right = closes | np.append(vals[1:] < vals[:-1], True)
        peak = above_left & above_right & np.isfinite(vals)
        idx = self._ends[first[peak]]
        keep = idx != answer
        idx, vals = idx[keep], vals[peak][keep]
        best = np.lexsort((idx, -vals))[:EXTRA_PEAKS]
        return tuple(self._point(i) for i in idx[best])

    def running(self) -> RunningGridResponse:
        """A fresh best responder to a count-weighted, growing opponent history."""
        return RunningGridResponse(self)


class RunningGridResponse:
    """Best response to the uniform mixture over a growing list of atoms.

    Answers against ``S / count``, where ``S = sum_j payoffs(atom_j)`` over
    every :meth:`add` in add order (an atom added twice counts twice),
    with the answer and value of a full scan of ``S``, bit for bit.

    ``S`` is held at the cell endpoints and on the active cells: those
    that the last :meth:`respond` kept, bounding each cell as
    :meth:`GridSearchOracle.respond` does with ``count`` as the total
    weight.  On a cell, ``S`` is one row of ``CELL_POINTS - 1`` sums laid
    out as the oracle's store rows.  :meth:`add` fills a new atom on the
    active cells only.  A kept cell that was not active is activated: the
    history's distinct atoms are filled on it where the oracle's store
    lacks them, in one utility call, and its sums are added up anew over
    the history in add order.  So every held sum is the one a full-grid
    running sum would hold, and the search over the endpoints and the kept
    cells sees every point that can be best.
    """

    def __init__(self, oracle: GridSearchOracle):
        self._oracle = oracle
        self._distinct: dict[int, None] = {}  # store ids, in first-add order
        self._history: list[int] = []  # the store id of each add
        self._ends = np.zeros(oracle._ends.size)
        self._scale = 0.0
        self._active = np.zeros(oracle._left.size, dtype=bool)
        self._cells = np.zeros(0, dtype=np.intp)  # the active cells
        self._sums = np.empty((oracle._left.size, CELL_POINTS - 1))  # S, held on those only
        self.count = 0

    def add(self, atom: StrategyPoint) -> None:
        oracle = self._oracle
        i = oracle._id(atom)
        if i not in self._distinct:
            # Earlier atoms are filled on the active cells already.
            oracle._fill(np.array([i]), self._cells)
            self._distinct[i] = None
        self._history.append(i)
        self.count += 1
        self._ends += oracle._end_values[i]
        self._scale += oracle._scale[i]
        self._sums[self._cells] += oracle._rows[oracle._slot[i, self._cells]]

    def respond(self) -> OracleAnswer:
        oracle = self._oracle
        kept = oracle._kept(self._ends, self.count, self._scale)
        new = kept[~self._active[kept]]
        if new.size:
            oracle._fill(np.array(list(self._distinct)), new)
            table = oracle._rows[oracle._slot[np.array(self._history)[:, None], new]]
            self._sums[new] = _row_sums(table.reshape(self.count, -1)).reshape(new.size, -1)
        self._active[:] = False
        self._active[kept] = True
        self._cells = kept
        i, value = oracle._best(self._ends, self._sums[kept], kept, self.count)
        return OracleAnswer(oracle._point(i), value)
