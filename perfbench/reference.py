"""Reference computations made apart from the package under test.

Nothing here imports ``double_oracle``.  The game utilities and strategy
spaces are retyped from their formulas, so a fault in the package cannot
also hide in the check that is meant to catch it.

* :func:`fine_best_response` - 1-D best-response values on a grid ten times
  finer than the benchmark's oracles use.
* :func:`blotto_best_response` - the exact Blotto best response, found by
  enumerating the breakpoint vertices of the piecewise-linear payoff.
* :func:`lattice_best_response` - the Blotto best response over every point
  of the allocation lattice.
"""

from __future__ import annotations

import itertools

import numpy as np


def g1_utility(x, y):
    """Polynomial game: value -0.48 on [-1, 1]^2."""
    return 5.0 * x * y - 2.0 * x**2 - 2.0 * x * y**2 - y


def g2_utility(x, y):
    """Game built from the Townsend test function."""
    return -np.cos((x - 0.1) * y) ** 2 - x * np.sin(3.0 * x + y)


# name -> (utility, player 1 interval, player 2 interval)
ONE_DIM = {
    "g1": (g1_utility, (-1.0, 1.0), (-1.0, 1.0)),
    "g2": (g2_utility, (-2.25, 2.5), (-2.5, 1.75)),
}
G1_VALUE = -0.48

# Bounds |du/dx| and |du/dy| of both games on their domains:
# g1: |5y - 4x - 2y^2| <= 11 and |5x - 4xy - 1| <= 10;
# g2: |y sin(2(x-0.1)y) - sin(3x+y) - 3x cos(3x+y)| <= 2.5 + 1 + 7.5 = 11
#     and |(x-0.1) sin(2(x-0.1)y) - x cos(3x+y)| <= 4.9.
LIPSCHITZ = 11.0
FINE_RESOLUTION = 1e-5
_REFINE = 10  # fine points per coarse cell
_CHUNK = 1 << 18  # utility evaluations per numpy call, to keep memory flat


def mixture_payoff(utility, t, atoms, weights, player):
    """``sum_j w_j u(t, y_j)`` for player 1, ``sum_j w_j u(y_j, t)`` for player 2."""
    t = np.asarray(t, dtype=float)[:, None]
    atoms = np.asarray(atoms, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float)
    out = np.zeros(t.shape[0])
    step = max(1, _CHUNK // t.shape[0])
    for lo in range(0, atoms.size, step):
        a = atoms[None, lo : lo + step]
        table = utility(t, a) if player == 1 else utility(a, t)
        out += table @ weights[lo : lo + step]
    return out


def fine_best_response(game, player, atoms, weights):
    """Best-response value over a grid of spacing :data:`FINE_RESOLUTION`.

    Player 1 maximizes, player 2 minimizes.  Every tenth grid point is
    evaluated first; a cell between two of them is then searched point by
    point unless the Lipschitz bound shows it cannot beat the best value so
    far.  The result is the exact optimum over the whole fine grid.
    """
    utility, space1, space2 = ONE_DIM[game]
    lo, hi = space1 if player == 1 else space2
    steps = int(round((hi - lo) / FINE_RESOLUTION))
    if steps % _REFINE:
        raise ValueError(f"interval [{lo}, {hi}] does not split into whole coarse cells")
    fine = np.linspace(lo, hi, steps + 1)
    sign = 1.0 if player == 1 else -1.0
    coarse = sign * mixture_payoff(utility, fine[::_REFINE], atoms, weights, player)
    best = coarse.max()
    slack = LIPSCHITZ * _REFINE * FINE_RESOLUTION / 2.0
    cells = np.flatnonzero(np.maximum(coarse[:-1], coarse[1:]) + slack >= best)
    inner = (cells[:, None] * _REFINE + np.arange(1, _REFINE)[None, :]).ravel()
    if inner.size:
        best = max(best, (sign * mixture_payoff(utility, fine[inner], atoms, weights, player)).max())
    return sign * float(best)


def expected_payoff(utility, p_atoms, p_weights, q_atoms, q_weights):
    """Bilinear expected payoff of two finite 1-D mixtures."""
    table = utility(np.asarray(p_atoms, float).reshape(-1, 1), np.asarray(q_atoms, float).reshape(1, -1))
    return float(np.asarray(p_weights, float) @ table @ np.asarray(q_weights, float))


def blotto_utility(x, y, a, c):
    """Weighted contest scores: ``sum_j a_j clip((x_j - y_j) / c, -1, 1)``."""
    return np.clip((np.asarray(x, float) - np.asarray(y, float)) / c, -1.0, 1.0) @ np.asarray(a, float)


def blotto_payoffs(candidates, atoms, weights, a, c, player):
    """Payoff of each candidate allocation against the opponent mixture."""
    cand = np.asarray(candidates, float)[:, None, :]
    opp = np.asarray(atoms, float)[None, :, :]
    table = blotto_utility(cand, opp, a, c) if player == 1 else blotto_utility(opp, cand, a, c)
    return table @ np.asarray(weights, float)


def _best(candidates, atoms, weights, a, c, player):
    values = blotto_payoffs(candidates, atoms, weights, a, c, player)
    idx = int(np.argmax(values)) if player == 1 else int(np.argmin(values))
    return float(values[idx]), candidates[idx]


def breakpoint_vertices(atoms, c):
    """Candidate best responses: vertices of the payoff's linear pieces.

    Battlefield ``j``'s score against the mixture is piecewise linear in
    ``x_j`` with breakpoints at ``y_ij - c`` and ``y_ij + c``.  On each piece
    the payoff is linear over a box cut by the budget plane, so an optimum
    sits where ``n - 1`` coordinates are on breakpoints or on {0, 1} and the
    last one closes the budget.
    """
    atoms = np.asarray(atoms, float)
    n = atoms.shape[1]
    found = []
    for free in range(n):
        others = [j for j in range(n) if j != free]
        axes = [
            np.unique(np.clip(np.concatenate([atoms[:, j] - c, atoms[:, j] + c, [0.0, 1.0]]), 0.0, 1.0))
            for j in others
        ]
        fixed = np.array(list(itertools.product(*axes)), dtype=float)
        x = np.empty((fixed.shape[0], n))
        x[:, others] = fixed
        x[:, free] = 1.0 - fixed.sum(axis=1)
        found.append(x[x[:, free] >= -1e-12])
    return np.clip(np.vstack(found), 0.0, 1.0)


def blotto_best_response(atoms, weights, a, c, player):
    """Exact best-response value and allocation over the whole simplex."""
    return _best(breakpoint_vertices(atoms, c), atoms, weights, a, c, player)


def lattice(n, c):
    """Every allocation whose coordinates are multiples of ``c`` (1/c whole)."""
    steps = int(round(1.0 / c))
    if abs(steps * c - 1.0) > 1e-12:
        raise ValueError(f"1/c is not a whole number for c = {c}")
    points = []
    for cuts in itertools.combinations(range(steps + n - 1), n - 1):
        bounds = (-1,) + cuts + (steps + n - 1,)
        points.append([bounds[i + 1] - bounds[i] - 1 for i in range(n)])
    return np.asarray(points, dtype=float) / steps


def lattice_best_response(atoms, weights, a, c, player):
    """Best-response value and allocation over the full allocation lattice."""
    return _best(lattice(len(a), c), atoms, weights, a, c, player)
