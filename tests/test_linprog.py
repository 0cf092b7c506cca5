"""LinearProgram models without binary variables, solved through solve_milp.

These check the translation of the maximization form (senses, general and
free bounds, offsets) into HiGHS, and the statuses that come back.
"""

import numpy as np
import pytest

from double_oracle import LinearProgram, MilpModel, ModelError, solve_milp


def solve_continuous(lp):
    return solve_milp(MilpModel(lp, ()))


def feasibility_violation(lp, x):
    """Largest constraint or bound violation of x, for invariant checks."""
    worst = 0.0
    for row, sense, b in zip(lp.lhs, lp.senses, lp.rhs):
        v = float(row @ x)
        if sense == "<=":
            worst = max(worst, v - b)
        elif sense == ">=":
            worst = max(worst, b - v)
        else:
            worst = max(worst, abs(v - b))
    worst = max(worst, float(np.max(lp.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - lp.upper, initial=0.0)))
    return worst


def test_two_variable_box():
    sol = solve_continuous(
        LinearProgram(
            objective=[1.0, 1.0],
            lhs=[[1.0, 0.0], [0.0, 1.0]],
            senses=("<=", "<="),
            rhs=[1.0, 2.0],
        )
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_conflicting_row_is_infeasible():
    # x >= 0 by default, so x <= -1 cannot hold
    sol = solve_continuous(LinearProgram([1.0], [[1.0]], ("<=",), [-1.0]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_missing_upper_bound_is_unbounded():
    sol = solve_continuous(LinearProgram([1.0], [[1.0]], (">=",), [2.0]))
    assert sol.status == "unbounded"


def test_no_constraints_at_all():
    sol = solve_continuous(LinearProgram([1.0], np.zeros((0, 1)), (), []))
    assert sol.status == "unbounded"
    capped = solve_continuous(LinearProgram([1.0], np.zeros((0, 1)), (), [], upper=[4.0]))
    assert capped.status == "optimal"
    assert capped.objective == pytest.approx(4.0)


def test_matching_pennies_row_program():
    # reciprocal program for the +2-shifted matrix [[3, 1], [1, 3]]:
    # max -sum(p') subject to S^T p' >= 1; the shifted value is 1/sum(p')
    shifted = np.array([[3.0, 1.0], [1.0, 3.0]])
    sol = solve_continuous(
        LinearProgram(
            objective=[-1.0, -1.0],
            lhs=shifted.T,
            senses=(">=", ">="),
            rhs=[1.0, 1.0],
        )
    )
    assert sol.status == "optimal"
    total = -sol.objective
    assert 1.0 / total == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x / total, [0.5, 0.5], atol=1e-9)


def test_equality_row():
    sol = solve_continuous(
        LinearProgram([1.0, 1.0], [[1.0, 1.0]], ("=",), [1.0])
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_offset_and_general_bounds():
    # max 2x + y + 10 over x in [1, 3], y in [-2, -1]
    sol = solve_continuous(
        LinearProgram(
            objective=[2.0, 1.0],
            lhs=np.zeros((0, 2)),
            senses=(),
            rhs=[],
            lower=[1.0, -2.0],
            upper=[3.0, -1.0],
            offset=10.0,
        )
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(15.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [3.0, -1.0], atol=1e-9)


def test_negative_objective_on_negative_box():
    sol = solve_continuous(
        LinearProgram([-1.0], np.zeros((0, 1)), (), [], lower=[-5.0], upper=[-2.0])
    )
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(-5.0, abs=1e-9)


def test_fixed_variable():
    sol = solve_continuous(
        LinearProgram([1.0], np.zeros((0, 1)), (), [], lower=[2.0], upper=[2.0])
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)


def test_free_variable_hits_lower_constraint():
    # max -x with x free but constrained to x >= -3
    sol = solve_continuous(
        LinearProgram([-1.0], [[1.0]], (">=",), [-3.0], lower=[-np.inf])
    )
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_beale_degenerate_program_terminates():
    """Classic cycling example for naive Dantzig pricing; must still finish."""
    lp = LinearProgram(
        objective=[0.75, -150.0, 0.02, -6.0],
        lhs=[
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        senses=("<=", "<=", "<="),
        rhs=[0.0, 0.0, 1.0],
    )
    sol = solve_continuous(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.05, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-9)


def test_validation_errors():
    with pytest.raises(ModelError):
        LinearProgram([1.0, 2.0], [[1.0]], ("<=",), [1.0])
    with pytest.raises(ModelError):
        LinearProgram([1.0], [[1.0]], ("<",), [1.0])
    with pytest.raises(ModelError):
        LinearProgram([1.0], [[1.0]], ("<=",), [1.0], lower=[2.0], upper=[1.0])
    with pytest.raises(ModelError):
        LinearProgram([np.nan], [[1.0]], ("<=",), [1.0])


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

        primal = solve_continuous(LinearProgram(c, A, ("<=",) * 6, b))
        dual = solve_continuous(LinearProgram(-b, -A.T, ("<=",) * 8, -c))

        assert primal.status == "optimal"
        assert dual.status == "optimal"
        assert primal.objective == pytest.approx(-dual.objective, abs=1e-6)
        primal_lp = LinearProgram(c, A, ("<=",) * 6, b)
        assert feasibility_violation(primal_lp, primal.x) <= 1e-8
        assert primal.objective == pytest.approx(float(c @ primal.x), abs=1e-8)

