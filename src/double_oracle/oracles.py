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

# Most next-best candidates FinitePointOracle returns in OracleAnswer.extra.
# On blotto-lattice, solve time falls from 2 extras to 8 and is flat to 16.
EXTRA_RESPONSES = 8


@dataclass(frozen=True)
class OracleAnswer:
    """A best response ``point`` and its payoff ``value`` against the query.

    ``extra`` holds further strategies of the same player, other than
    ``point``, that the oracle found promising on the way.  They come with
    no value and no guarantee: the double oracle adds them to its strategy
    sets, no bound uses them, and fictitious play ignores them.
    :class:`FinitePointOracle` (and so :class:`~.blotto.BlottoGridOracle`)
    returns up to :data:`EXTRA_RESPONSES` next-best candidates, and
    :class:`~.one_dim.GridSearchOracle` up to
    :data:`~.one_dim.EXTRA_PEAKS` peaks of its cell-endpoint sums.  The
    MILP oracle and fictitious play's running responders return none.
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


class FinitePointOracle:
    """Exhaustive search over an explicit list of pure strategies.

    Exact (accuracy 0) relative to the candidate list: useful for games that
    are finite to begin with, or as a restricted oracle over a fixed grid.
    The answer is the best candidate against the query, ties to the lowest
    index, which for a lexicographically sorted list means the
    lexicographically smallest winner.  A NaN value, or an infinite best,
    raises :class:`~.errors.ModelError`.

    The answer's ``extra`` holds the next :data:`EXTRA_RESPONSES`
    candidates by value, best first (largest for player 1, smallest for
    player 2), ties to the lowest index.  Candidates with a non-finite
    value are left out, and so is the answer's index; a candidate list
    that repeats a point can repeat it there, and the engine adds a held
    strategy only once.  They cost no utility evaluations, and the double
    oracle adds all of them to the subgame in one block.
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
        atoms = opponent.atoms_array()
        weights = opponent.weights_array()
        if self.player == 1:
            table = self.game.utility(self._arr[:, None, :], atoms[None, :, :])
        else:
            table = self.game.utility(atoms[None, :, :], self._arr[:, None, :])
        values = np.asarray(table, dtype=float) @ weights
        side = values if self.player == 1 else -values
        # argmax picks the first NaN if there is one.
        idx = int(np.argmax(side))
        value = float(values[idx])
        if not math.isfinite(value):
            raise ModelError(f"utility returned {value} at a candidate point")
        rest = np.flatnonzero(np.isfinite(side))
        rest = rest[rest != idx]
        best = rest[np.lexsort((rest, -side[rest]))[:EXTRA_RESPONSES]]
        return OracleAnswer(self.points[idx], value, tuple(self.points[i] for i in best))
