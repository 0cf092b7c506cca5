"""Continuous Colonel Blotto: divisible budgets over weighted battlefields.

Both players split a unit budget across ``n`` battlefields; battlefield
``j`` is worth ``a[j]`` and pays its contest score ``l((x_j - y_j), c)`` to
player 1, where ``l`` ramps linearly from -1 to 1 over the margin ``[-c, c]``
and saturates outside it.  The utility is the weighted sum of the scores, so
the game is antisymmetric.

Best responses against a finite opponent mixture come in two flavors:

* an exact mixed-integer program, obtained by writing the contest function as
  ``l(z) = max(z/c + 1, 0) - max(z/c - 1, 0) - 1`` and linearizing each of
  the two hinge terms with one continuous variable, one indicator binary, and
  four linear constraints (big-M constants ``1/c - 1`` and ``1/c + 1``, which
  are tight for unit budgets).  :func:`build_best_response_milp` lists the
  nonzeros and row bounds block by block, directly in the form HiGHS takes
  (a sparse CSC row matrix, see :mod:`.milp`), and the answer's value is
  the utility of the returned allocation, recomputed from the game rather
  than read off the MILP objective;
* exhaustive enumeration over the grid of allocations in multiples of a grid
  spacing ``c``: a :class:`FinitePointOracle` over :func:`simplex_grid`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .core import (
    FiniteMixedStrategy,
    GameDefinition,
    Simplex,
    StrategyPoint,
)
from .errors import DomainError, ParameterError, ResourceLimitError
from .milp import MilpModel, solve_milp
from .oracles import FinitePointOracle, OracleAnswer

MILP_ACCURACY = 1e-6
ENUMERATION_LIMIT = 10**6
# Support size above which the MILP grows unwieldy and enumeration is likely
# the better oracle (for small n).
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
            raise ParameterError(f"battlefield values must be positive, got {a}")
        c = float(self.c)
        if not (0.0 < c <= 1.0):
            raise ParameterError(f"contest margin c must be in (0, 1], got {c}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)


def l_eval(z, c: float):
    """Piecewise-linear contest score: -1 below -c, z/c between, 1 above c."""
    if c <= 0:
        raise ParameterError(f"contest margin c must be positive, got {c}")
    out = np.clip(np.asarray(z, dtype=float) / c, -1.0, 1.0)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


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
        raise ParameterError(f"1/c must be an integer for a simplex grid, got c = {c}")
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

    points: list[StrategyPoint] = []
    parts = [0] * n

    def descend(j: int, remaining: int) -> None:
        if j == n - 1:
            parts[j] = remaining
            points.append(StrategyPoint(tuple(p / k for p in parts)))
            return
        for v in range(remaining + 1):
            parts[j] = v
            descend(j + 1, remaining - v)

    descend(0, k)
    return points


def _opponent_matrix(opponent: FiniteMixedStrategy, game: BlottoGame) -> tuple[np.ndarray, np.ndarray]:
    atoms = opponent.atoms_array()
    if atoms.shape[1] != game.n:
        raise DomainError(
            f"opponent atoms have {atoms.shape[1]} coordinates, expected {game.n}"
        )
    if atoms.min() < -1e-9 or atoms.max() > 1.0 + 1e-9:
        raise DomainError("opponent allocations must have coordinates in [0, 1]")
    return atoms, opponent.weights_array()


def build_best_response_milp(
    opponent: FiniteMixedStrategy, game: BlottoGame
) -> MilpModel:
    """MILP whose optimum is player 1's exact best response to ``opponent``.

    Variable layout: allocations ``x`` (n), then per opponent-atom/battlefield
    pair ``i * n + j`` the hinge variables ``s`` (kn) and ``t`` (kn) and their
    indicator binaries ``z`` (kn) and ``w`` (kn).  Row 0 spends the budget;
    each pair then owns six consecutive rows, in this order::

        s - x_j/c                 >= 1 - y_ij/c
        s - x_j/c + (1/c - 1) z   <= 1/c - y_ij/c
        s         - (1/c + 1) z   <= 0
        t - x_j/c                 >= -1 - y_ij/c
        t - x_j/c + (1/c + 1) w   <= 1/c - y_ij/c
        t         - (1/c - 1) w   <= 0

    At any feasible integral point ``s - t - 1`` equals the contest score of
    the pair, so the objective is the true expected utility of ``x``.
    """
    atoms, weights = _opponent_matrix(opponent, game)
    k, n = atoms.shape
    kn = k * n
    inv = 1.0 / game.c
    m_narrow = inv - 1.0  # bounds the inactive side of the s-hinge, active of t
    m_wide = inv + 1.0
    y = atoms.ravel()
    lift = 1.0 - y * inv  # (x - y + c)/c evaluated at x = 0
    drop = -1.0 - y * inv  # (x - y - c)/c evaluated at x = 0

    pair = np.arange(kn)
    x = np.tile(np.arange(n), k)  # the allocation column of each pair
    s, t, z, w = (n + block * kn + pair for block in range(4))
    nvars = n + 4 * kn

    objective = np.zeros(nvars)
    coef = np.outer(weights, np.asarray(game.a)).ravel()
    objective[s] = coef
    objective[t] = -coef

    first = 1 + 6 * pair
    entries = [(np.zeros(n, dtype=int), np.arange(n), np.ones(n))]  # the budget row
    for q, var, value in (
        (0, s, 1.0), (0, x, -inv),
        (1, s, 1.0), (1, x, -inv), (1, z, m_narrow),
        (2, s, 1.0), (2, z, -m_wide),
        (3, t, 1.0), (3, x, -inv),
        (4, t, 1.0), (4, x, -inv), (4, w, m_wide),
        (5, t, 1.0), (5, w, -m_narrow),
    ):
        entries.append((first + q, var, np.full(kn, value)))
    row, col, data = (np.concatenate(part) for part in zip(*entries))
    keep = data != 0.0  # m_narrow is 0 at c = 1; a dense matrix stores no zeros
    # Canonical CSC (sorted int32 indices, no zeros) is what scipy.optimize.milp
    # makes of the equivalent dense matrix, so HiGHS gets the same input.
    rows = csc_array(
        (data[keep], (row[keep].astype(np.int32), col[keep].astype(np.int32))),
        shape=(1 + 6 * kn, nvars),
    )
    row_lower = np.full((kn, 6), -np.inf)
    row_upper = np.full((kn, 6), np.inf)
    row_lower[:, 0] = lift
    row_upper[:, 1] = lift + m_narrow
    row_upper[:, 2] = 0.0
    row_lower[:, 3] = drop
    row_upper[:, 4] = drop + m_wide
    row_upper[:, 5] = 0.0

    upper = np.full(nvars, np.inf)
    upper[:n] = 1.0
    upper[n + 2 * kn :] = 1.0  # covers both binary blocks
    return MilpModel(
        objective=objective,
        rows=rows,
        row_lower=np.concatenate(([1.0], row_lower.ravel())),
        row_upper=np.concatenate(([1.0], row_upper.ravel())),
        upper=upper,
        binary=np.arange(nvars) >= n + 2 * kn,
        offset=-float(np.sum(game.a)),
    )


def milp_best_response(
    opponent: FiniteMixedStrategy,
    game: BlottoGame,
    **milp_options,
) -> OracleAnswer:
    """Exact best response for player 1 via the MILP formulation.

    The returned value is the expected utility of the returned allocation.
    HiGHS's objective, computed within its tolerances, differs from that
    utility by up to about 1e-6 on random mixtures, which would use up all
    of :data:`MILP_ACCURACY`.
    """
    atoms, weights = _opponent_matrix(opponent, game)
    model = build_best_response_milp(opponent, game)
    solution = solve_milp(model, **milp_options)
    x = np.clip(solution.x[: game.n], 0.0, None)
    x /= x.sum()
    value = float(blotto_utility(x, atoms, game) @ weights)
    return OracleAnswer(StrategyPoint(tuple(float(v) for v in x)), value)


def grid_enumeration_best_response(
    opponent: FiniteMixedStrategy,
    game: BlottoGame,
    grid_c: float | None = None,
) -> OracleAnswer:
    """Player 1 best response restricted to the ``grid_c``-spaced grid.

    Defaults to the game's own margin ``c``.  Exact over the grid; ties go to
    the lexicographically smallest allocation.  Grids over
    :data:`ENUMERATION_LIMIT` points raise :class:`ResourceLimitError`.
    """
    return BlottoGridOracle(game, 1, grid_c).respond(opponent)


class BlottoMilpOracle:
    """MILP best responses for either player (player 2 via antisymmetry)."""

    def __init__(self, game: BlottoGame, player: int, **milp_options):
        if player not in (1, 2):
            raise ParameterError(f"player must be 1 or 2, got {player!r}")
        self.game = game
        self.player = player
        self.milp_options = milp_options
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
        answer = milp_best_response(opponent, self.game, **self.milp_options)
        if self.player == 1:
            return answer
        # u(x, y) = -u(y, x): the maximizer against p is the minimizing
        # response of player 2, earning the negated value.
        return OracleAnswer(answer.point, -answer.value)


class BlottoGridOracle(FinitePointOracle):
    """Enumeration best responses for either player over a fixed grid.

    A :class:`FinitePointOracle` over :func:`simplex_grid` with spacing
    ``grid_c`` (default: the game's margin ``c``).  The declared accuracy of
    0.0 holds on the grid only.  Start double oracle from grid points: an
    off-grid subgame strategy can beat every grid response, and the engine
    then raises :class:`OracleContractError`.
    """

    def __init__(self, game: BlottoGame, player: int, grid_c: float | None = None):
        spacing = game.c if grid_c is None else grid_c
        super().__init__(game_definition(game), player, simplex_grid(game.n, spacing))
