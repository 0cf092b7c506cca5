"""Fictitious play with oracle best responses, as a baseline solver.

Both players simultaneously best-respond to the opponent's empirical mixture
(uniform over the opponent's history, so each of the ``i`` entries carries
weight ``1/i``; duplicated responses accumulate mass).  The oracle values
computed against the empirical mixtures bound the game value from below and
above, which makes the trace directly comparable with the strategy-generation
solver's.

A round changes each empirical mixture by one count.  An oracle with a
``running()`` method (:class:`~.one_dim.GridSearchOracle`) hands fictitious
play a responder that keeps the count-weighted payoff sum, on the grid
cells that can still hold the best response, and updates it as the history
grows.  Any other oracle is asked about the whole empirical mixture every
round through ``respond``.  Either way every answer is checked against the
mixture.  A trace row's ``time_s`` includes the history adds that follow
the previous row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    PointSet,
    StrategyPoint,
    _bilinear_utility,
    require_in_space,
)
from .errors import ParameterError
from .engine import IterationRecord, _check_answer
from .oracles import BestResponseOracle, OracleAnswer


class _Empirical:
    """Uniform history distribution with duplicates folded incrementally."""

    def __init__(self, first: StrategyPoint):
        self.reps = PointSet([first])
        self.counts: list[int] = [1]
        self.total = 1
        self._mixture: FiniteMixedStrategy | None = None

    def add(self, pt: StrategyPoint) -> StrategyPoint:
        """Count ``pt`` toward its representative, which is returned."""
        k = self.reps.add(pt)
        if k == len(self.counts):
            self.counts.append(0)
        self.counts[k] += 1
        self.total += 1
        self._mixture = None
        return self.reps.points[k]

    def mixture(self) -> FiniteMixedStrategy:
        # ``add`` keeps the representatives MERGE_TOL apart, so no re-merge.
        if self._mixture is None:
            self._mixture = FiniteMixedStrategy(
                tuple(self.reps.points), tuple(c / self.total for c in self.counts)
            )
        return self._mixture


class _Requery:
    """Responder for an oracle without ``running()``: asks about the whole mixture."""

    def __init__(self, oracle: BestResponseOracle, opponent: _Empirical):
        self.oracle = oracle
        self.opponent = opponent

    def add(self, atom: StrategyPoint) -> None:
        pass

    def respond(self) -> OracleAnswer:
        return self.oracle.respond(self.opponent.mixture())


def _responder(oracle: BestResponseOracle, opponent: _Empirical):
    """Best responder to ``opponent``, fed each representative it counts."""
    running = getattr(oracle, "running", None)
    responder = running() if running is not None else _Requery(oracle, opponent)
    responder.add(opponent.reps.points[0])
    return responder


@dataclass
class FictitiousPlayResult:
    trace: list[IterationRecord]
    empirical1: FiniteMixedStrategy
    empirical2: FiniteMixedStrategy

    @property
    def gap(self) -> float:
        return self.trace[-1].gap


def run_fictitious_play(
    game: GameDefinition,
    oracle1: BestResponseOracle,
    oracle2: BestResponseOracle,
    init1: StrategyPoint,
    init2: StrategyPoint,
    iters: int,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> FictitiousPlayResult:
    """Run ``iters`` rounds of simultaneous fictitious play.

    Iteration ``i`` records the oracle bounds against the empirical mixtures
    of the first ``i`` history entries; both responses are appended before
    the next round.  The responses of the final round are not appended, so
    the returned empirical mixtures are exactly the ones the last trace row
    measured (their expected utility equals its ``subgame_value``).
    """
    if iters < 1:
        raise ParameterError(f"iters must be >= 1, got {iters}")
    require_in_space(game.space1, init1, "player 1")
    require_in_space(game.space2, init2, "player 2")

    started = time.perf_counter()
    emp1 = _Empirical(init1)
    emp2 = _Empirical(init2)
    best1 = _responder(oracle1, emp2)
    best2 = _responder(oracle2, emp1)
    trace: list[IterationRecord] = []
    for i in range(1, iters + 1):
        mix1 = emp1.mixture()
        mix2 = emp2.mixture()
        ans1 = _check_answer(best1.respond(), mix2, game, 1)
        ans2 = _check_answer(best2.respond(), mix1, game, 2)
        # Every atom passed require_in_space or _check_answer once.
        subgame_value = _bilinear_utility(mix1, mix2, game)
        stopped = time.perf_counter()
        record = IterationRecord(
            index=i,
            lower=ans2.value,
            upper=ans1.value,
            subgame_value=subgame_value,
            size_x=mix1.support_size,
            size_y=mix2.support_size,
            added_x=ans1.point,
            added_y=ans2.point,
            time_s=stopped - started,
        )
        started = stopped
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if i < iters:
            # The representative's payoffs, not the raw answer's, so that
            # each running sum is exactly sum_j count_j * payoffs(rep_j).
            best2.add(emp1.add(ans1.point))
            best1.add(emp2.add(ans2.point))
    return FictitiousPlayResult(trace, emp1.mixture(), emp2.mixture())
