"""One-dimensional benchmark games and the grid-search best-response oracle."""

from __future__ import annotations

import numpy as np

from .core import (
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    IntervalUnion,
    StrategyPoint,
)
from .errors import ParameterError
from .oracles import OracleAnswer

DEFAULT_RESOLUTION = 1e-4
# Conservative Lipschitz bounds (both coordinates) for the built-in games.
POLYNOMIAL_LIPSCHITZ = 16.0
TOWNSEND_LIPSCHITZ = 20.0


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
    return GameDefinition(unit, unit, polynomial_utility, name="g1-polynomial")


def townsend_utility(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x1 = x[..., 0]
    y1 = y[..., 0]
    return -np.cos((x1 - 0.1) * y1) ** 2 - x1 * np.sin(3.0 * x1 + y1)


def make_townsend_game() -> GameDefinition:
    """Zero-sum game built from the Townsend test function; highly multimodal."""
    return GameDefinition(
        Box((-2.25,), (2.5,)),
        Box((-2.5,), (1.75,)),
        townsend_utility,
        name="g2-townsend",
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

    return GameDefinition(
        IntervalUnion(((0.0, 1.0), (2.0, 3.0))),
        base.space2,
        tiled,
        name=name or (base.name + "-tiled"),
    )


class GridSearchOracle:
    """Best response by exhaustive search over a uniform grid.

    The grid covers the responding player's interval(s) with spacing at most
    ``resolution``, endpoints included.  Ties resolve to the smallest
    coordinate.  When a Lipschitz bound ``L`` for the utility in the
    responder's coordinate is supplied, the declared accuracy is
    ``L * resolution / 2``; without one the answer is only guaranteed optimal
    over the grid itself and the accuracy is reported as 0.

    A query against a ``k``-atom mixture costs one grid-length pass per
    atom: it adds ``weight * column`` into one value vector, in the query's
    atom order, so the answer does not depend on earlier queries.  Payoff
    columns are cached per distinct opponent atom (memory: one grid-length
    column each), so repeated queries against growing mixtures (as produced
    by the solvers here) evaluate the utility only on new atoms.

    Fictitious play, whose opponent mixture changes by one count a round,
    uses :meth:`running` instead: a round then costs one column add and one
    argmax/argmin over the grid, whatever the support.  The running sum
    lives in the returned responder, not in the oracle, so :meth:`respond`
    stays a pure function of its query.
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
        if resolution <= 0:
            raise ParameterError(f"resolution must be positive, got {resolution}")
        if lipschitz is not None and lipschitz < 0:
            raise ParameterError(f"lipschitz bound must be >= 0, got {lipschitz}")
        self.game = game
        self.player = player
        self.resolution = float(resolution)
        self.lipschitz = lipschitz
        space = game.space1 if player == 1 else game.space2
        self._grid = np.sort(space.grid_points(resolution))
        self._grid_pts = self._grid[:, None]
        self._columns: dict[tuple[float, ...], np.ndarray] = {}
        self.accuracy = 0.0 if lipschitz is None else lipschitz * resolution / 2.0

    def _column(self, atom: StrategyPoint) -> np.ndarray:
        cached = self._columns.get(atom.coords)
        if cached is None:
            other = atom.array()
            if self.player == 1:
                cached = np.asarray(self.game.utility(self._grid_pts, other), dtype=float)
            else:
                cached = np.asarray(self.game.utility(other, self._grid_pts), dtype=float)
            self._columns[atom.coords] = cached
        return cached

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer:
        values = np.zeros(self._grid.size)
        for atom, weight in zip(opponent.atoms, opponent.weights):
            values += weight * self._column(atom)
        return self._best(values, 1.0)

    def _best(self, values: np.ndarray, total: float) -> OracleAnswer:
        # argmax/argmin on the undivided sum: dividing first could round
        # distinct values into ties.  Ties go to the smallest coordinate.
        idx = int(np.argmax(values)) if self.player == 1 else int(np.argmin(values))
        return OracleAnswer(StrategyPoint((float(self._grid[idx]),)), float(values[idx]) / total)

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
