"""Continuous Colonel Blotto: divisible budgets over weighted battlefields.

Both players split a unit budget across ``n`` battlefields; battlefield
``j`` is worth ``a[j]`` and pays its contest score ``l((x_j - y_j), c)`` to
player 1, where ``l`` ramps linearly from -1 to 1 over the margin ``[-c, c]``
and saturates outside it.  The utility is the weighted sum of the scores, so
the game is antisymmetric.

Best responses against a finite opponent mixture come in two flavors:

* an exact mixed-integer program.  Each battlefield's payoff against the
  mixture is piecewise linear in its allocation, and gets the incremental
  model of such a function (segments filled left to right, one binary
  between two consecutive segments), which is locally ideal (Vielma, Ahmed
  & Nemhauser 2010, Oper. Res. 58(2)).  :func:`build_best_response_milp`
  lists the nonzeros and row bounds block by block, directly in the form
  HiGHS takes (a sparse CSC row matrix, see :mod:`.milp`), and the answer's
  value is the utility of the returned allocation, recomputed from the game
  rather than read off the MILP objective;
* exhaustive enumeration over the grid of allocations in multiples of the
  margin ``c``: :class:`BlottoGridOracle`, a :class:`FinitePointOracle` over
  :func:`simplex_grid`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    Simplex,
    StrategyPoint,
)
from .errors import DomainError, ParameterError, ResourceLimitError
from .milp import MIP_ABS_GAP, MilpModel, csc_from_entries, solve_milp
from .oracles import FinitePointOracle, OracleAnswer, _check_player

# HiGHS stops within this absolute gap of the optimum.
MILP_ACCURACY = MIP_ABS_GAP
ENUMERATION_LIMIT = 10**6
# Opponent support times battlefields above which the MILP grows unwieldy
# and enumeration is likely the better oracle (for small n).
MILP_SIZE_WARNING = 200


@dataclass(frozen=True)
class BlottoGame:
    """Battlefield count ``n``, values ``a``, and contest margin ``c``."""

    n: int
    a: tuple[float, ...]
    c: float

    def __post_init__(self):
        n = int(self.n)
        if n < 2:
            raise ParameterError(f"need at least 2 battlefields, got {n}")
        a = tuple(float(v) for v in self.a)
        if len(a) != n:
            raise ParameterError(f"{len(a)} battlefield values for n = {n}")
        if any(not math.isfinite(v) or v <= 0 for v in a):
            raise ParameterError(f"battlefield values must be finite and > 0, got {a}")
        c = float(self.c)
        if not (0.0 < c <= 1.0):
            raise ParameterError(f"contest margin c must be in (0, 1], got {c}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)


def blotto_utility(x: np.ndarray, y: np.ndarray, game: BlottoGame) -> np.ndarray:
    """Weighted contest scores summed over battlefields (vectorized)."""
    scores = np.clip((np.asarray(x, float) - np.asarray(y, float)) / game.c, -1.0, 1.0)
    return scores @ np.asarray(game.a)


def game_definition(game: BlottoGame) -> GameDefinition:
    space = Simplex(game.n)
    return GameDefinition(
        space,
        space,
        lambda x, y: blotto_utility(x, y, game),
        name=f"blotto-n{game.n}",
    )


def allocation(coords) -> StrategyPoint:
    """Validate and wrap a budget split (nonnegative, summing to 1)."""
    pt = StrategyPoint(tuple(float(v) for v in coords))
    if not Simplex(pt.dim).contains(pt):
        raise DomainError(f"{pt.coords} is not a unit-budget allocation")
    return pt


def _grid_steps(c: float) -> int:
    if c <= 0:
        raise ParameterError(f"grid spacing c must be positive, got {c}")
    k = 1.0 / c
    if abs(k - round(k)) > 1e-9:
        raise ParameterError(f"1/c is not integral (c={c}), so there is no allocation lattice")
    return int(round(k))


def simplex_grid(n: int, c: float) -> list[StrategyPoint]:
    """All allocations with coordinates in multiples of ``c``.

    Enumerated in ascending lexicographic order of the coordinate tuple;
    the count is ``C(1/c + n - 1, n - 1)``.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    k = _grid_steps(c)
    count = math.comb(k + n - 1, n - 1)
    if count > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"simplex grid would hold {count} points, over the {ENUMERATION_LIMIT} limit"
        )
    # Each point is the gaps between n - 1 sorted cuts of {0, ..., k}.
    return [
        StrategyPoint(tuple((b - a) / k for a, b in zip((0, *cuts), (*cuts, k))))
        for cuts in itertools.combinations_with_replacement(range(k + 1), n - 1)
    ]


def _opponent_matrix(opponent: FiniteMixedStrategy, game: BlottoGame) -> tuple[np.ndarray, np.ndarray]:
    atoms = opponent.atoms_array()
    if atoms.shape[1] != game.n:
        raise DomainError(
            f"opponent atoms have {atoms.shape[1]} coordinates, expected {game.n}"
        )
    if atoms.min() < -1e-9 or atoms.max() > 1.0 + 1e-9:
        raise DomainError("opponent allocations must have coordinates in [0, 1]")
    return atoms, opponent.weights_array()


@dataclass(frozen=True)
class BlottoMilp(MilpModel):
    """The best-response MILP plus its allocation readout.

    ``spend @ solution`` is the allocation: row ``j`` holds each segment
    length ``L_s`` at battlefield ``j``'s fill columns.
    """

    spend: np.ndarray | None = None


def build_best_response_milp(
    opponent: FiniteMixedStrategy, game: BlottoGame
) -> BlottoMilp:
    """MILP whose optimum is player 1's exact best response to ``opponent``.

    Battlefield ``j`` pays ``f_j(x_j) = a_j sum_i w_i l(x_j - y_ij)``, linear
    between the sorted, distinct breakpoints ``{0, 1, y_ij +- c}`` in
    ``[0, 1]``.  Segment ``s`` of length ``L_s > 0`` and rise ``df_s`` gets a
    fill fraction ``lambda_s`` in [0, 1] (the first columns, battlefield by
    battlefield, left to right), and each pair of consecutive segments of
    one battlefield gets a binary ``z`` (the last columns).  Row 0 spends
    the budget, ``sum_s L_s lambda_s = 1``; pair ``q`` of segments
    ``(s, s + 1)`` then owns two rows, in this order::

        lambda_s     - z_q >= 0
        lambda_{s+1} - z_q <= 0

    so a segment is entered only once the one before it is full.  The
    objective ``sum_s df_s lambda_s`` plus ``offset = sum_j f_j(0)`` is the
    expected utility of the allocation ``x_j = sum_{s in j} L_s lambda_s``
    (see :class:`BlottoMilp`).  Apart from ``L_s`` in row 0 every
    coefficient is +-1, so breakpoints a rounding error apart give neither
    tiny coefficients nor huge slopes.
    """
    atoms, weights = _opponent_matrix(opponent, game)
    n, c = game.n, game.c
    ends = np.vstack((atoms - c, atoms + c, np.zeros(n), np.ones(n)))
    points = np.sort(np.clip(ends, 0.0, 1.0), axis=0)  # points[0] is 0 on every field
    payoff = np.column_stack([  # f_j at each of its points
        game.a[j] * (np.clip((points[:, j, None] - atoms[:, j]) / c, -1.0, 1.0) @ weights)
        for j in range(n)
    ])
    segment = (points[1:] > points[:-1]).T  # drops the repeats
    field = np.nonzero(segment)[0]
    length = np.diff(points, axis=0).T[segment]
    left = np.flatnonzero(field[:-1] == field[1:])  # the first segment of each pair
    segments, pairs = length.size, left.size
    z = segments + np.arange(pairs)
    nvars = segments + pairs

    first, second, one = 1 + 2 * np.arange(pairs), 2 + 2 * np.arange(pairs), np.ones(pairs)
    entries = (
        (np.zeros(segments, dtype=int), np.arange(segments), length),  # the budget
        (first, left, one), (first, z, -one),  # lambda_s - z >= 0
        (second, left + 1, one), (second, z, -one),  # lambda_{s+1} - z <= 0
    )
    row, col, data = (np.concatenate(part) for part in zip(*entries))
    rows = csc_from_entries(row, col, data, (1 + 2 * pairs, nvars))
    spend = np.zeros((n, nvars))
    spend[field, np.arange(segments)] = length
    return BlottoMilp(
        objective=np.concatenate((np.diff(payoff, axis=0).T[segment], np.zeros(pairs))),
        rows=rows,
        row_lower=np.concatenate(([1.0], np.tile([0.0, -np.inf], pairs))),
        row_upper=np.concatenate(([1.0], np.tile([np.inf, 0.0], pairs))),
        upper=np.ones(nvars),
        binary=np.arange(nvars) >= segments,
        offset=float(payoff[0].sum()),
        spend=spend,
    )


def milp_best_response(opponent: FiniteMixedStrategy, game: BlottoGame) -> OracleAnswer:
    """Exact best response for player 1 via the MILP formulation.

    The returned value is the expected utility of the returned allocation.
    HiGHS's objective, computed within its tolerances, differs from that
    utility by up to about 1e-6 on random mixtures, which would use up all
    of :data:`MILP_ACCURACY`.
    """
    atoms, weights = _opponent_matrix(opponent, game)
    model = build_best_response_milp(opponent, game)
    solution = solve_milp(model)
    x = np.clip(model.spend @ solution.x, 0.0, None)
    x /= x.sum()
    value = float(blotto_utility(x, atoms, game) @ weights)
    return OracleAnswer(StrategyPoint(tuple(float(v) for v in x)), value)


class BlottoMilpOracle:
    """MILP best responses for either player (player 2 via antisymmetry)."""

    def __init__(self, game: BlottoGame, player: int):
        self.game = game
        self.player = _check_player(player)
        self.accuracy = MILP_ACCURACY
        self._warned = False

    def respond(self, opponent: FiniteMixedStrategy) -> OracleAnswer:
        if not self._warned and opponent.support_size * self.game.n > MILP_SIZE_WARNING:
            warnings.warn(
                f"best-response MILP has {opponent.support_size * self.game.n} "
                "battlefield pairs; the enumeration oracle is likely faster "
                "for small n",
                stacklevel=2,
            )
            self._warned = True
        answer = milp_best_response(opponent, self.game)
        if self.player == 1:
            return answer
        # u(x, y) = -u(y, x): the maximizer against p is the minimizing
        # response of player 2, earning the negated value.
        return OracleAnswer(answer.point, -answer.value)


class BlottoGridOracle(FinitePointOracle):
    """Enumeration best responses for either player over the game's lattice.

    A :class:`FinitePointOracle` over :func:`simplex_grid` with the game's
    margin ``c`` as spacing; ties go to the lexicographically smallest
    allocation, and ``extra`` holds the next-best lattice points.

    The declared accuracy of 0.0 holds for the continuous game whenever
    every atom of the query lies on the lattice.  Battlefield ``j``'s payoff
    against such a mixture is then piecewise linear in ``x_j``, with
    breakpoints at 0, 1 and the atoms' ``y_j +- c``, all multiples of ``c``.
    On each box of consecutive breakpoints the utility is linear, so its
    maximum over that box and the simplex lies at a vertex: ``n - 1``
    coordinates on box bounds and the last one closing the budget, which
    is a multiple of ``c`` as ``1/c`` is an integer.  So some continuous
    best response is a lattice point.  Double oracle from lattice starts
    asks only such queries, since every answer is a lattice point.  Against
    an off-lattice atom the accuracy need not hold: an off-lattice subgame
    strategy can beat every lattice response, and the engine then raises
    :class:`OracleContractError`.  For another spacing, use a
    :class:`FinitePointOracle` over that :func:`simplex_grid`.
    """

    def __init__(self, game: BlottoGame, player: int):
        super().__init__(game_definition(game), player, simplex_grid(game.n, game.c))
