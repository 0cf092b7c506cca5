"""Best-response oracle interface and the exhaustive oracle for finite games.

An oracle answers: given the opponent's finite mixed strategy, which pure
strategy of mine is (approximately) optimal against it, and what does it
earn?  Player 1 oracles maximize the game utility, player 2 oracles minimize
it.  Every oracle declares an ``accuracy``: the returned value is within that
amount of the true best response value.  An oracle's answer depends only on
its query, but an oracle may keep state between queries (a payoff cache, an
evaluation count), so one instance must not be queried from two threads at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    StrategyPoint,
    require_in_space,
)
from .errors import ModelError, ParameterError


@dataclass(frozen=True)
class OracleAnswer:
    """A best response ``point`` and its payoff ``value`` against the query.

    ``extra`` holds further strategies of the same player, distinct from
    ``point``, that the oracle found promising on the way.  They come with
    no value and no guarantee: the double oracle adds them to its strategy
    sets, and no bound uses them.
    """

    point: StrategyPoint
    value: float
    extra: tuple[StrategyPoint, ...] = ()


@runtime_checkable
class BestResponseOracle(Protocol):
    accuracy: float

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer: ...


def _check_player(player: int) -> int:
    if player not in (1, 2):
        raise ParameterError(f"player must be 1 or 2, got {player!r}")
    return player


def best_over_points(
    candidates: np.ndarray,
    opponent: FiniteMixedStrategy,
    game: GameDefinition,
    player: int,
) -> tuple[int, float]:
    """Index and value of the best candidate row against ``opponent``.

    ``candidates`` has one pure strategy per row.  Ties resolve to the lowest
    index, which for lexicographically sorted candidate arrays means the
    lexicographically smallest winner.  A NaN value, or an infinite best,
    raises :class:`~.errors.ModelError`.
    """
    atoms = opponent.atoms_array()
    weights = opponent.weights_array()
    if player == 1:
        table = game.utility(candidates[:, None, :], atoms[None, :, :])
    else:
        table = game.utility(atoms[None, :, :], candidates[:, None, :])
    values = np.asarray(table, dtype=float) @ weights
    # argmax and argmin pick the first NaN if there is one.
    idx = int(np.argmax(values)) if player == 1 else int(np.argmin(values))
    value = float(values[idx])
    if not math.isfinite(value):
        raise ModelError(f"utility returned {value} at a candidate point")
    return idx, value


class FinitePointOracle:
    """Exhaustive search over an explicit list of pure strategies.

    Exact (accuracy 0) relative to the candidate list: useful for games that
    are finite to begin with, or as a restricted oracle over a fixed grid.
    """

    def __init__(
        self,
        game: GameDefinition,
        player: int,
        points: Sequence[StrategyPoint],
    ):
        self.game = game
        self.player = _check_player(player)
        points = list(points)
        if not points:
            raise ParameterError("candidate list must be nonempty")
        space = game.space1 if player == 1 else game.space2
        for pt in points:
            require_in_space(space, pt, f"player {player} candidate")
        self.points = tuple(points)
        self._arr = np.asarray([p.coords for p in points], dtype=float)
        self.accuracy = 0.0

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer:
        idx, value = best_over_points(self._arr, opponent, self.game, self.player)
        return OracleAnswer(self.points[idx], value)
