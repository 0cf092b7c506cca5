import numpy as np
import pytest

from double_oracle import (
    BlottoGame,
    LinearProgram,
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


def binary_knapsack(values, weights, capacity):
    n = len(values)
    lp = LinearProgram(
        objective=values,
        lhs=[list(weights)],
        senses=("<=",),
        rhs=[capacity],
        upper=np.ones(n),
    )
    return MilpModel(lp, tuple(range(n)))


def test_single_binary_rounds_down():
    sol = solve_milp(binary_knapsack([1.0], [1.0], 1.5))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)


def test_picks_heavier_of_two_items():
    # max 2 z1 + 3 z2 with z1 + z2 <= 1
    sol = solve_milp(binary_knapsack([2.0, 3.0], [1.0, 1.0], 1.0))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-6)


def test_blotto_response_to_center_allocation():
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.125)
    model = build_best_response_milp(dirac(point(1 / 3, 1 / 3, 1 / 3)), game)
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)


def test_milp_never_beats_its_relaxation():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = 5
        lp = LinearProgram(
            objective=rng.uniform(-1.0, 2.0, n),
            lhs=rng.uniform(0.0, 1.0, (3, n)),
            senses=("<=",) * 3,
            rhs=rng.uniform(1.0, 2.0, 3),
            upper=np.ones(n),
        )
        relaxed = solve_milp(MilpModel(lp, ()))
        mixed = solve_milp(MilpModel(lp, (0, 2, 4)))
        assert relaxed.status == "optimal"
        assert mixed.status == "optimal"
        assert mixed.objective <= relaxed.objective + 1e-9
        # the proved bound brackets the incumbent
        assert mixed.bound >= mixed.objective - 1e-9
        assert abs(mixed.bound - mixed.objective) <= 1e-6
        frac = mixed.x[[0, 2, 4]]
        assert np.all(np.minimum(frac, 1.0 - frac) <= 1e-6)


def test_integral_relaxation_needs_one_node():
    # relaxation optimum already lands on binaries
    lp = LinearProgram(
        objective=[1.0, 1.0],
        lhs=[[1.0, 0.0], [0.0, 1.0]],
        senses=("<=", "<="),
        rhs=[1.0, 1.0],
        upper=[1.0, 1.0],
    )
    sol = solve_milp(MilpModel(lp, (0, 1)))
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.nodes <= 1


def test_node_limit_raises_with_partial_progress():
    # HiGHS closes small knapsacks at the root, so use a Blotto best
    # response that needs branching.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.0625)
    mix = merge_duplicates(
        [point(0.7, 0.2, 0.1), point(0.15, 0.35, 0.5)], [0.4, 0.6]
    )
    model = build_best_response_milp(mix, game)
    optimum = solve_milp(model).objective
    with pytest.raises(ResourceLimitError) as err:
        solve_milp(model, node_limit=1)
    assert "node limit" in str(err.value)
    assert err.value.bound >= optimum - 1e-9  # never below the true optimum
    if err.value.incumbent is not None:
        z = err.value.incumbent[list(model.binary_vars)]
        assert np.all(np.minimum(z, 1.0 - z) <= 1e-6)


def test_infeasible_binary_row():
    lp = LinearProgram([1.0], [[1.0]], (">=",), [2.0], upper=[1.0])
    sol = solve_milp(MilpModel(lp, (0,)))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded_continuous_part():
    lp = LinearProgram([1.0, 0.0], np.zeros((0, 2)), (), [], upper=[np.inf, 1.0])
    sol = solve_milp(MilpModel(lp, (1,)))
    assert sol.status == "unbounded"


def test_model_validation():
    lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], ("<=",), [1.0], upper=[1.0, 2.0])
    with pytest.raises(ModelError, match="duplicate"):
        MilpModel(lp, (0, 0))
    with pytest.raises(ModelError, match="out of range"):
        MilpModel(lp, (5,))
    with pytest.raises(ModelError, match="within"):
        MilpModel(lp, (1,))  # upper bound 2 is not a binary relaxation


def test_presolve_failure_is_retried():
    # HiGHS presolve ends this model in "Solve error"; without presolve it
    # solves.  Winning two fields outright against (0.5, 0.25, 0.25) pays 1.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.125)
    opponent = dirac(point(0.5, 0.25, 0.25))
    ans = milp_best_response(opponent, game)
    assert ans.value == pytest.approx(1.0, abs=1e-9)
    paid = blotto_utility(np.asarray(ans.point.coords), opponent.atoms[0].array(), game)
    assert float(paid) == ans.value
