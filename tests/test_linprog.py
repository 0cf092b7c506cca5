"""Continuous models (no binary variables), solved through solve_milp.

These check the translation of the model form (two-sided rows, upper
bounds) into HiGHS, and that a model without an optimum raises.
"""

import numpy as np
import pytest

from double_oracle import MilpModel, ModelError, solve_milp


def lp(objective, rows, row_lower, row_upper, upper=None):
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    return MilpModel(
        objective=objective,
        rows=np.asarray(rows, dtype=float).reshape(-1, n),
        row_lower=np.asarray(row_lower, dtype=float),
        row_upper=np.asarray(row_upper, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
        binary=np.zeros(n, dtype=bool),
    )


def objective_at(model, x):
    return float(model.objective @ x) + model.offset


def feasibility_violation(model, x):
    """Largest constraint or bound violation of x, for invariant checks."""
    v = model.rows @ x
    return max(
        float(np.max(model.row_lower - v, initial=0.0)),
        float(np.max(v - model.row_upper, initial=0.0)),
        float(np.max(-x, initial=0.0)),
        float(np.max(x - model.upper, initial=0.0)),
    )


def test_two_variable_box():
    model = lp([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-np.inf, -np.inf], [1.0, 2.0])
    sol = solve_milp(model)
    assert objective_at(model, sol.x) == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_conflicting_row_is_infeasible():
    # x >= 0 always, so x <= -1 cannot hold
    with pytest.raises(ModelError, match="Infeasible"):
        solve_milp(lp([1.0], [[1.0]], [-np.inf], [-1.0]))


def test_missing_upper_bound_is_unbounded():
    with pytest.raises(ModelError, match="Unbounded"):
        solve_milp(lp([1.0], [[1.0]], [2.0], [np.inf]))


def test_no_constraints_at_all():
    with pytest.raises(ModelError):
        solve_milp(lp([1.0], np.zeros((0, 1)), [], []))
    capped = solve_milp(lp([1.0], np.zeros((0, 1)), [], [], upper=[4.0]))
    assert capped.x[0] == pytest.approx(4.0)


def test_matching_pennies_row_program():
    # reciprocal program for the +2-shifted matrix [[3, 1], [1, 3]]:
    # max -sum(p') subject to S^T p' >= 1; the shifted value is 1/sum(p')
    shifted = np.array([[3.0, 1.0], [1.0, 3.0]])
    sol = solve_milp(lp([-1.0, -1.0], shifted.T, [1.0, 1.0], [np.inf, np.inf]))
    total = float(sol.x.sum())
    assert 1.0 / total == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x / total, [0.5, 0.5], atol=1e-9)


def test_equality_row():
    model = lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0])
    sol = solve_milp(model)
    assert objective_at(model, sol.x) == pytest.approx(1.0, abs=1e-9)


def test_fixed_variable():
    # an upper bound of 0 pins x at its lower bound despite the objective
    sol = solve_milp(lp([1.0], np.zeros((0, 1)), [], [], upper=[0.0]))
    assert sol.x[0] == 0.0


def test_beale_degenerate_program_terminates():
    """Classic cycling example for naive Dantzig pricing; must still finish."""
    model = lp(
        [0.75, -150.0, 0.02, -6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [-np.inf] * 3,
        [0.0, 0.0, 1.0],
    )
    sol = solve_milp(model)
    assert objective_at(model, sol.x) == pytest.approx(0.05, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def test_strong_duality_on_random_programs():
    """Primal and dual optima agree on random bounded-feasible pairs.

    Primal: max c@x s.t. Ax <= b, x >= 0 (one row of ones keeps it bounded,
    b > 0 keeps x = 0 feasible).  Dual: min b@y s.t. A^T y >= c, y >= 0,
    solved through the same code path as max -b@y.
    """
    rng = np.random.default_rng(12345)
    for _ in range(10):
        A = rng.uniform(-1.0, 1.0, size=(5, 8))
        A = np.vstack([A, np.ones(8)])
        b = np.concatenate([rng.uniform(0.5, 2.0, size=5), [10.0]])
        c = rng.uniform(-1.0, 1.0, size=8)

        primal_lp = lp(c, A, np.full(6, -np.inf), b)
        dual_lp = lp(-b, -A.T, np.full(8, -np.inf), -c)
        x = solve_milp(primal_lp).x
        dual = objective_at(dual_lp, solve_milp(dual_lp).x)

        assert objective_at(primal_lp, x) == pytest.approx(-dual, abs=1e-6)
        assert feasibility_violation(primal_lp, x) <= 1e-8
