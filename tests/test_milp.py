from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize._highspy import _core as highs_core

from double_oracle import (
    BlottoGame,
    MilpModel,
    ModelError,
    ResourceLimitError,
    blotto_utility,
    build_best_response_milp,
    dirac,
    merge_duplicates,
    milp_best_response,
    point,
    solve_milp,
)
from double_oracle import milp
from double_oracle.milp import csc_from_entries


def model(objective, rows, row_upper, row_lower=-np.inf, upper=1.0, binary=()):
    """max objective @ x s.t. row_lower <= rows @ x <= row_upper, 0 <= x <= upper.

    ``rows`` is given dense; the model holds its nonzeros as a CscMatrix.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.size
    dense = np.asarray(rows, dtype=float).reshape(-1, n)
    row, col = np.nonzero(dense)
    row_upper = np.asarray(row_upper, dtype=float)
    mask = np.zeros(n, dtype=bool)
    mask[list(binary)] = True
    return MilpModel(
        objective=objective,
        rows=csc_from_entries(row, col, dense[row, col], dense.shape),
        row_lower=np.full(row_upper.shape, row_lower, dtype=float),
        row_upper=row_upper,
        upper=np.full(n, upper, dtype=float),
        binary=mask,
    )


def binary_knapsack(values, weights, capacity):
    return model(values, [list(weights)], [capacity], binary=range(len(values)))


def objective_at(m, x):
    return float(m.objective @ x) + m.offset


def feasibility_violation(m, rows, x):
    """Largest constraint or bound violation of x; ``rows`` is m's dense row matrix."""
    v = rows @ x
    return max(
        float(np.max(m.row_lower - v, initial=0.0)),
        float(np.max(v - m.row_upper, initial=0.0)),
        float(np.max(-x, initial=0.0)),
        float(np.max(x - m.upper, initial=0.0)),
    )


def test_single_binary_rounds_down():
    sol = solve_milp(binary_knapsack([1.0], [1.0], 1.5))
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_picks_heavier_of_two_items():
    # max 2 z1 + 3 z2 with z1 + z2 <= 1
    sol = solve_milp(binary_knapsack([2.0, 3.0], [1.0, 1.0], 1.0))
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-6)


def test_blotto_response_to_center_allocation():
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.125)
    m = build_best_response_milp(dirac(point(1 / 3, 1 / 3, 1 / 3)), game)
    assert objective_at(m, solve_milp(m).x) == pytest.approx(1.0, abs=1e-6)


def test_milp_never_beats_its_relaxation():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = 5
        args = (rng.uniform(-1.0, 2.0, n), rng.uniform(0.0, 1.0, (3, n)), rng.uniform(1.0, 2.0, 3))
        relaxed = model(*args)
        mixed = model(*args, binary=(0, 2, 4))
        mixed_x = solve_milp(mixed).x
        assert objective_at(mixed, mixed_x) <= objective_at(relaxed, solve_milp(relaxed).x) + 1e-9
        frac = mixed_x[[0, 2, 4]]
        assert np.all(np.minimum(frac, 1.0 - frac) <= 1e-6)


def test_integral_relaxation_needs_one_node():
    # relaxation optimum already lands on binaries
    sol = solve_milp(model([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], binary=(0, 1)))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)
    assert sol.nodes <= 1


def test_node_limit_raises_with_partial_progress():
    # HiGHS closes small knapsacks, and most Blotto best responses, at the
    # root; this one still branches.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.0625)
    mix = merge_duplicates(
        [point(0.31, 0.15, 0.54), point(0.53, 0.39, 0.08), point(0.0, 0.81, 0.19),
         point(0.47, 0.3, 0.23)],
        [0.18, 0.52, 0.08, 0.22],
    )
    m = build_best_response_milp(mix, game)
    optimum = objective_at(m, solve_milp(m).x)
    with pytest.raises(ResourceLimitError) as err:
        solve_milp(m, node_limit=1)
    assert "node limit" in str(err.value)
    assert err.value.bound >= optimum - 1e-9  # never below the true optimum
    if err.value.incumbent is not None:
        z = err.value.incumbent[m.binary]
        assert np.all(np.minimum(z, 1.0 - z) <= 1e-6)


def test_infeasible_binary_row():
    # a binary variable cannot reach 2
    with pytest.raises(ModelError):
        solve_milp(model([1.0], [[-1.0]], [-2.0], binary=(0,)))


def test_unbounded_continuous_part():
    capped = model([1.0, 0.0], np.zeros((0, 2)), [], binary=(1,))
    unbounded = replace(capped, upper=np.array([np.inf, 1.0]))
    with pytest.raises(ModelError):
        solve_milp(unbounded)


def test_non_optimal_run_is_retried_once_with_defaults(monkeypatch):
    # The stub stops the first HiGHS run at a zero time limit, so it ends
    # non-optimal; solve_milp must repeat it once with HiGHS's own options.
    runs = []

    class FirstRunTimesOut(highs_core._Highs):
        def run(self):
            runs.append({name: self.getOptionValue(name)[1] for name in milp.SMALL_MODEL_OPTIONS})
            if len(runs) == 1:
                self.setOptionValue("time_limit", 0.0)
            status = super().run()
            runs[-1]["status"] = self.getModelStatus()
            return status

    monkeypatch.setattr(milp, "_Highs", FirstRunTimesOut)
    # Winning two fields outright against (0.5, 0.25, 0.25) pays 1.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.125)
    opponent = dirac(point(0.5, 0.25, 0.25))
    ans = milp_best_response(opponent, game)
    defaults = highs_core._Highs()
    assert len(runs) == 2
    assert runs[0] == {**milp.SMALL_MODEL_OPTIONS, "status": highs_core.HighsModelStatus.kTimeLimit}
    assert runs[1] == {
        **{name: defaults.getOptionValue(name)[1] for name in milp.SMALL_MODEL_OPTIONS},
        "status": highs_core.HighsModelStatus.kOptimal,
    }
    assert ans.value == 1.0
    paid = blotto_utility(np.asarray(ans.point.coords), opponent.atoms[0].array(), game)
    assert float(paid) == ans.value


# ------------------------------------------------ continuous models
# No binary variables: these check the translation of the model form
# (two-sided rows, upper bounds) into HiGHS, and that a model without an
# optimum raises.

def test_two_variable_box():
    m = model([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], upper=np.inf)
    sol = solve_milp(m)
    assert objective_at(m, sol.x) == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_conflicting_row_is_infeasible():
    # x >= 0 always, so x <= -1 cannot hold
    with pytest.raises(ModelError, match="Infeasible"):
        solve_milp(model([1.0], [[1.0]], [-1.0], upper=np.inf))


def test_missing_upper_bound_is_unbounded():
    with pytest.raises(ModelError, match="Unbounded"):
        solve_milp(model([1.0], [[1.0]], [np.inf], row_lower=[2.0], upper=np.inf))


def test_no_constraints_at_all():
    with pytest.raises(ModelError):
        solve_milp(model([1.0], np.zeros((0, 1)), [], upper=np.inf))
    capped = solve_milp(model([1.0], np.zeros((0, 1)), [], upper=4.0))
    assert capped.x[0] == pytest.approx(4.0)


def test_matching_pennies_row_program():
    # reciprocal program for the +2-shifted matrix [[3, 1], [1, 3]]:
    # max -sum(p') subject to S^T p' >= 1; the shifted value is 1/sum(p')
    shifted = np.array([[3.0, 1.0], [1.0, 3.0]])
    sol = solve_milp(
        model([-1.0, -1.0], shifted.T, [np.inf, np.inf], row_lower=[1.0, 1.0], upper=np.inf)
    )
    total = float(sol.x.sum())
    assert 1.0 / total == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_allclose(sol.x / total, [0.5, 0.5], atol=1e-9)


def test_equality_row():
    m = model([1.0, 1.0], [[1.0, 1.0]], [1.0], row_lower=[1.0], upper=np.inf)
    sol = solve_milp(m)
    assert objective_at(m, sol.x) == pytest.approx(1.0, abs=1e-9)


def test_fixed_variable():
    # an upper bound of 0 pins x at its lower bound despite the objective
    sol = solve_milp(model([1.0], np.zeros((0, 1)), [], upper=0.0))
    assert sol.x[0] == 0.0


def test_beale_degenerate_program_terminates():
    """Classic cycling example for naive Dantzig pricing; must still finish."""
    m = model(
        [0.75, -150.0, 0.02, -6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [0.0, 0.0, 1.0],
        upper=np.inf,
    )
    sol = solve_milp(m)
    assert objective_at(m, sol.x) == pytest.approx(0.05, abs=1e-9)
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

        primal_lp = model(c, A, b, upper=np.inf)
        dual_lp = model(-b, -A.T, -c, upper=np.inf)
        x = solve_milp(primal_lp).x
        dual = objective_at(dual_lp, solve_milp(dual_lp).x)

        assert objective_at(primal_lp, x) == pytest.approx(-dual, abs=1e-6)
        assert feasibility_violation(primal_lp, A, x) <= 1e-8
