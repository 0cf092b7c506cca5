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


def model(objective, rows, row_upper, binary=()):
    """max objective @ x s.t. rows @ x <= row_upper, 0 <= x <= 1."""
    n = len(objective)
    mask = np.zeros(n, dtype=bool)
    mask[list(binary)] = True
    return MilpModel(
        objective=np.asarray(objective, dtype=float),
        rows=np.asarray(rows, dtype=float),
        row_lower=np.full(len(row_upper), -np.inf),
        row_upper=np.asarray(row_upper, dtype=float),
        upper=np.ones(n),
        binary=mask,
    )


def binary_knapsack(values, weights, capacity):
    return model(values, [list(weights)], [capacity], binary=range(len(values)))


def objective_at(m, x):
    return float(m.objective @ x) + m.offset


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

