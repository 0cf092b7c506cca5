"""Strategy-generation loop for continuous two-player zero-sum games.

Starting from finite strategy sets, repeat: solve the finite subgame exactly
by LP, ask each player's oracle for a best response to the opponent's
subgame equilibrium, and add the answers to the sets, together with any
``extra`` strategies the oracles return.  The oracle values of the answers
sandwich the game value from below and above every iteration; the loop stops
once that sandwich closes to ``epsilon``, at which point the last subgame
equilibrium is an approximate equilibrium of the full game with additive
error equal to the final gap (plus the oracles' declared accuracy).  It
also stops, as "stalled", when an iteration adds no strategy: the subgame
and so every later iteration would then be the same.

The subgame is built once per run and then grows in place.  Its two axes,
:class:`~.core.PointSet` s, are the strategy sets: an oracle answer within
:data:`~.core.MERGE_TOL` of a held strategy is not added again.  A new
strategy costs one row or column of payoff evaluations and one LP column or
row, and the LP is re-solved from its previous basis (see
:mod:`.matrix_game`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    StrategyPoint,
    require_in_space,
)
from .errors import ModelError, OracleContractError, ParameterError
from .matrix_game import VALUE_TOL, extend_subgame, solve_zero_sum, subgame_matrix
from .oracles import BestResponseOracle, OracleAnswer

# Absolute slack added to the gap <= epsilon stopping test.  Exact arithmetic
# drives the gap of a finite game to zero once the sets stop growing; in
# floats it lands within LP residual of zero, and this slack lets epsilon = 0
# terminate anyway.  Set to 0 to disable.
STOP_TOL = 1e-9

TERMINATED_GAP = "gap"
TERMINATED_CAP = "iteration_cap"
TERMINATED_STALL = "stalled"


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of a solver run.

    ``lower``/``upper`` are the oracle values against the current subgame
    equilibrium, ``subgame_value`` is the expected utility of that
    equilibrium (read off the held subgame payoffs in double oracle), and
    ``size_x``/``size_y`` are the strategy-set sizes of the subgame that
    was solved.  ``added_x``/``added_y`` are the oracle answers,
    recorded even when they duplicate existing points.  ``time_s`` is the
    wall time since the previous record (since the run started, for the
    first), so it includes the work between records, such as growing the
    subgame, and the records' times add up to the run's.
    """

    index: int
    lower: float
    upper: float
    subgame_value: float
    size_x: int
    size_y: int
    added_x: StrategyPoint
    added_y: StrategyPoint
    time_s: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass
class SolveResult:
    p_star: FiniteMixedStrategy
    q_star: FiniteMixedStrategy
    trace: list[IterationRecord]
    terminated_by: str  # "gap", "iteration_cap" or "stalled"

    @property
    def gap(self) -> float:
        return self.trace[-1].gap

    @property
    def value(self) -> float:
        return self.trace[-1].subgame_value

    @property
    def iterations(self) -> int:
        return len(self.trace)


def _check_answer(
    answer: OracleAnswer,
    opponent: FiniteMixedStrategy,
    game: GameDefinition,
    player: int,
) -> OracleAnswer:
    """Return ``answer``, a best response to ``opponent``, once it checks out.

    The point must lie in the player's space, and the reported value must
    match the point's payoff against ``opponent``, recomputed from the game
    (one utility evaluation per opponent atom), within :data:`VALUE_TOL`; a
    NaN value matches nothing.  A recomputed payoff that is not finite is
    the game's fault and raises :class:`ModelError`.
    """
    space = game.space1 if player == 1 else game.space2
    if not space.contains(answer.point):
        raise OracleContractError(
            f"player {player} oracle returned {answer.point.coords}, "
            f"which is outside {space}"
        )
    mine = answer.point.array()[None, :]
    atoms = opponent.atoms_array()
    payoffs = game.utility(mine, atoms) if player == 1 else game.utility(atoms, mine)
    earned = float(np.asarray(payoffs, dtype=float) @ opponent.weights_array())
    if not math.isfinite(earned):
        raise ModelError(
            f"utility returned {earned} at player {player}'s answer {answer.point.coords}"
        )
    if not (abs(earned - answer.value) <= VALUE_TOL):  # NaN fails too
        raise OracleContractError(
            f"player {player} oracle reported value {answer.value}, but its "
            f"point {answer.point.coords} earns {earned}"
        )
    return answer


def _check_against_subgame(
    answer: OracleAnswer, oracle: BestResponseOracle, value: float, player: int
) -> None:
    """Reject a best-response value worse for ``player`` than the subgame value.

    The subgame's own strategies already earn ``value`` against the
    opponent's equilibrium strategy, so no true best response does worse.
    """
    shortfall = value - answer.value if player == 1 else answer.value - value
    if not (shortfall <= oracle.accuracy + VALUE_TOL):  # NaN fails too
        raise OracleContractError(
            f"player {player} oracle reported value {answer.value}, but the "
            f"subgame already guarantees {value} (accuracy {oracle.accuracy})"
        )


def _require_accuracies(oracle1: BestResponseOracle, oracle2: BestResponseOracle) -> None:
    """Reject an oracle whose declared accuracy bounds nothing.

    An infinite accuracy would let any answer pass the checks, so a closed
    gap would certify nothing.
    """
    for player, oracle in ((1, oracle1), (2, oracle2)):
        if not (math.isfinite(oracle.accuracy) and oracle.accuracy >= 0):
            raise ParameterError(
                f"player {player} oracle accuracy must be finite and >= 0, got {oracle.accuracy}"
            )


def run_double_oracle(
    game: GameDefinition,
    oracle1: BestResponseOracle,
    oracle2: BestResponseOracle,
    initial_x: Sequence[StrategyPoint],
    initial_y: Sequence[StrategyPoint],
    epsilon: float = 1e-3,
    max_iters: int = 1000,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> SolveResult:
    """Run the strategy-generation loop until the bound gap closes.

    Returns the last subgame equilibrium together with the full iteration
    trace.  Reaching ``max_iters`` is a normal outcome reported as
    ``terminated_by == "iteration_cap"``, not an error.  An iteration whose
    answers and extras the strategy sets all hold already ends the run with
    ``terminated_by == "stalled"`` and that iteration's record last; the gap
    left is then the subgame solver's error, not a missing strategy, and
    the run does not count as closed.  ``on_iteration`` is
    invoked with each record as it is produced, which lets callers stream
    partial traces.  An oracle answer outside its player's space, whose
    value is not what its point earns, or whose value falls short of the
    subgame value by more than the oracle's accuracy plus :data:`VALUE_TOL`,
    raises :class:`OracleContractError`; one whose point earns a non-finite
    payoff raises :class:`ModelError`.  An ``epsilon`` or an oracle's
    declared accuracy that is not finite and >= 0 raises
    :class:`ParameterError` before any query.
    """
    _require_accuracies(oracle1, oracle2)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ParameterError(f"epsilon must be finite and >= 0, got {epsilon}")
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")

    if not initial_x or not initial_y:
        raise ParameterError("each player needs a nonempty initial strategy set")

    started = time.perf_counter()
    subgame = subgame_matrix(game, initial_x, initial_y)
    trace: list[IterationRecord] = []
    for i in range(1, max_iters + 1):
        p_star, q_star, value = solve_zero_sum(subgame)
        ans1 = _check_answer(oracle1.respond(q_star), q_star, game, 1)
        ans2 = _check_answer(oracle2.respond(p_star), p_star, game, 2)
        _check_against_subgame(ans1, oracle1, value, 1)
        _check_against_subgame(ans2, oracle2, value, 2)
        stopped = time.perf_counter()
        record = IterationRecord(
            index=i,
            lower=ans2.value,
            upper=ans1.value,
            subgame_value=value,
            size_x=len(subgame.rows),
            size_y=len(subgame.cols),
            added_x=ans1.point,
            added_y=ans2.point,
            time_s=stopped - started,
        )
        started = stopped
        trace.append(record)
        if on_iteration is not None:
            on_iteration(record)
        if record.gap <= epsilon + STOP_TOL:
            return SolveResult(p_star, q_star, trace, TERMINATED_GAP)
        if i == max_iters:
            break
        xs, ys = [ans1.point, *ans1.extra], [ans2.point, *ans2.extra]
        if not extend_subgame(subgame, game, xs, ys):
            return SolveResult(p_star, q_star, trace, TERMINATED_STALL)
    return SolveResult(p_star, q_star, trace, TERMINATED_CAP)


def bounds_from_profile(
    game: GameDefinition,
    p: FiniteMixedStrategy,
    q: FiniteMixedStrategy,
    oracle1: BestResponseOracle,
    oracle2: BestResponseOracle,
) -> tuple[float, float]:
    """Certified value bounds from an arbitrary mixed profile.

    ``lower = min_y U(p, y)`` and ``upper = max_x U(x, q)`` (both up to
    oracle accuracy); the game value lies between them.  Each oracle
    answer is checked as in :func:`run_double_oracle`, except against a
    subgame value, and the oracles' accuracies are checked as there.  An
    atom of ``p`` or ``q`` outside its player's space raises
    :class:`DomainError`, as in :func:`~.core.expected_utility`.
    """
    _require_accuracies(oracle1, oracle2)
    for atom in p.atoms:
        require_in_space(game.space1, atom, "player 1")
    for atom in q.atoms:
        require_in_space(game.space2, atom, "player 2")
    lower = _check_answer(oracle2.respond(p), p, game, 2).value
    upper = _check_answer(oracle1.respond(q), q, game, 1).value
    return lower, upper
