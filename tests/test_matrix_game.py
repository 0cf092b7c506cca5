import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core

import double_oracle.matrix_game as matrix_game
from double_oracle import (
    BlottoGame,
    DomainError,
    MatrixGame,
    ModelError,
    PointSet,
    embed_matrix_game,
    make_polynomial_game,
    merge_duplicates,
    point,
    solve_zero_sum,
    subgame_matrix,
)
from double_oracle.blotto import game_definition
from double_oracle.matrix_game import VALUE_TOL, extend_subgame

RPS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
PENNIES = [[1.0, -1.0], [-1.0, 1.0]]


def mixture_weight(mix, coords):
    for atom, w in zip(mix.atoms, mix.weights):
        if atom.coords == coords:
            return w
    return 0.0


def test_subgame_of_polynomial_benchmark():
    game = make_polynomial_game()
    # A point within MERGE_TOL of an earlier one of its list is dropped.
    xs = [point(0.0), point(5e-10), point(0.2)]
    mg = subgame_matrix(game, xs, [point(-1.0), point(1.0), point(1.0)])
    np.testing.assert_allclose(mg.payoff, [[1.0, -1.0], [-0.48, -0.48]], atol=1e-12)
    assert mg.rows.points == [point(0.0), point(0.2)]
    assert mg.cols.points == [point(-1.0), point(1.0)]


def test_singleton_subgame():
    game = make_polynomial_game()
    mg = subgame_matrix(game, [point(0.5)], [point(0.5)])
    assert mg.payoff.shape == (1, 1)
    assert mg.payoff[0, 0] == pytest.approx(float(5 * 0.25 - 2 * 0.25 - 2 * 0.125 - 0.5))


def test_identical_allocations_score_zero():
    game = game_definition(BlottoGame(3, (1.0, 1.0, 1.0), 0.25))
    mg = subgame_matrix(game, [point(0.5, 0.25, 0.25)], [point(0.5, 0.25, 0.25)])
    np.testing.assert_allclose(mg.payoff, [[0.0]], atol=0)


def test_subgame_rejects_points_outside_spaces():
    game = make_polynomial_game()
    with pytest.raises(DomainError):
        subgame_matrix(game, [point(2.0)], [point(0.0)])
    with pytest.raises(ModelError):
        subgame_matrix(game, [], [point(0.0)])


def test_rock_paper_scissors_is_uniform():
    p, q, value = solve_zero_sum(subgame_matrix(*embed_matrix_game(RPS)))
    assert value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(sorted(p.weights), [1 / 3] * 3, atol=1e-9)
    np.testing.assert_allclose(sorted(q.weights), [1 / 3] * 3, atol=1e-9)


def test_matching_pennies():
    p, q, value = solve_zero_sum(subgame_matrix(*embed_matrix_game(PENNIES)))
    assert value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(p.weights, [0.5, 0.5], atol=1e-9)


def test_polynomial_subgame_equilibrium():
    """The 2x2 restriction already carries the full game's equilibrium."""
    game = make_polynomial_game()
    mg = subgame_matrix(game, [point(0.0), point(0.2)], [point(-1.0), point(1.0)])
    p, q, value = solve_zero_sum(mg)
    assert value == pytest.approx(-0.48, abs=1e-9)
    assert mixture_weight(p, (0.2,)) == pytest.approx(1.0, abs=1e-9)
    # any equilibrium here must weight y = 1 with at least 0.74
    assert mixture_weight(q, (1.0,)) >= 0.74 - 1e-9


def test_certificate_on_random_games():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        A = rng.normal(size=rng.integers(1, 7, size=2))
        p, q, value = solve_zero_sum(subgame_matrix(*embed_matrix_game(A)))
        pw = np.asarray(p.weights)
        qw = np.asarray(q.weights)
        rows = np.asarray([a.coords[0] for a in p.atoms], dtype=int)
        cols = np.asarray([a.coords[0] for a in q.atoms], dtype=int)
        # re-expand merged supports onto the original axes
        pv = np.zeros(A.shape[0])
        pv[rows] = pw
        qv = np.zeros(A.shape[1])
        qv[cols] = qw
        assert (A @ qv).max() == pytest.approx(value, abs=1e-7)
        assert (pv @ A).min() == pytest.approx(value, abs=1e-7)


def test_shift_invariance():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(4, 6))
    _, _, v = solve_zero_sum(subgame_matrix(*embed_matrix_game(A)))
    _, _, v_shifted = solve_zero_sum(subgame_matrix(*embed_matrix_game(A + 3.7)))
    assert v_shifted == pytest.approx(v + 3.7, abs=1e-9)


def test_transposition_negates_value():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(5, 3))
    _, _, v = solve_zero_sum(subgame_matrix(*embed_matrix_game(A)))
    _, _, v_t = solve_zero_sum(subgame_matrix(*embed_matrix_game(-A.T)))
    assert v_t == pytest.approx(-v, abs=1e-9)


def test_embedding_round_trips_entries():
    game, rows, cols = embed_matrix_game(RPS)
    assert len(rows) == 3 and len(cols) == 3
    for i in range(3):
        for j in range(3):
            got = float(game.utility(rows[i].array(), cols[j].array()))
            assert got == RPS[i][j]


def test_embedding_rejects_bad_payoffs():
    with pytest.raises(ModelError):
        embed_matrix_game([[np.inf, 0.0]])
    with pytest.raises(ModelError):
        embed_matrix_game(np.zeros((0, 3)))


def test_matrix_game_validation():
    with pytest.raises(ModelError):
        MatrixGame(np.zeros((2, 2)), (point(0.0),), (point(0.0), point(1.0)))
    with pytest.raises(ModelError):
        MatrixGame(np.array([[np.nan]]), (point(0.0),), (point(0.0),))
    # a PointSet given as labels is kept, not rebuilt
    rows = PointSet([point(0.0)])
    assert MatrixGame(np.zeros((1, 1)), rows, (point(0.0),)).rows is rows


def test_repeated_labels_are_rejected():
    for near in (0.0, 5e-10):  # an exact repeat, and one within MERGE_TOL
        with pytest.raises(ModelError):
            MatrixGame(np.zeros((2, 1)), (point(0.0), point(near)), (point(1.0),))
        with pytest.raises(ModelError):
            MatrixGame(np.zeros((1, 2)), (point(0.0),), (point(1.0), point(1.0 + near)))
        mg = subgame_matrix(*embed_matrix_game(PENNIES))
        with pytest.raises(ModelError):
            mg.add_row(point(1.0 - near), [0.0, 0.0])
        with pytest.raises(ModelError):
            mg.add_col(point(0.0 + near), [0.0, 0.0])
        assert mg.payoff.shape == (2, 2)
        assert len(mg.rows) == len(mg.cols) == 2
        assert mg.rows.coords.shape == mg.cols.coords.shape == (2, 1)


def test_extend_subgame_adds_only_points_its_axes_lack():
    game = make_polynomial_game()
    mg = subgame_matrix(game, [point(0.0), point(0.2)], [point(-1.0)])
    assert extend_subgame(mg, game, [point(0.2 + 5e-10)], [point(1.0)]) == 1
    assert mg.rows.points == [point(0.0), point(0.2)]
    assert mg.cols.points == [point(-1.0), point(1.0)]
    np.testing.assert_allclose(mg.payoff, [[1.0, -1.0], [-0.48, -0.48]], atol=1e-12)
    # a point near an earlier one of the same call counts as held
    added = extend_subgame(
        mg, game, [point(0.5), point(0.5 + 5e-10), point(-0.5)], [point(1.0 - 5e-10), point(0.1)]
    )
    assert added == 3
    assert mg.rows.points == [point(0.0), point(0.2), point(0.5), point(-0.5)]
    assert mg.cols.points == [point(-1.0), point(1.0), point(0.1)]
    np.testing.assert_array_equal(
        mg.payoff, game.utility(mg.rows.coords[:, None, :], mg.cols.coords[None, :, :])
    )
    assert extend_subgame(mg, game, [point(0.0)], []) == 0


# ------------------------------------------------- the persistent HiGHS LP

HIGHS_METHODS = (
    "addCol", "addRow", "clearSolver", "getInfo", "getModelStatus", "getSolution",
    "modelStatusToString", "passModel", "run", "setOptionValue",
)
# The fields and enum members that matrix_game and milp read or set.
HIGHS_NAMES = {
    "HighsLp": (
        "num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_",
        "row_lower_", "row_upper_", "a_matrix_", "integrality_",
    ),
    "HighsSparseMatrix": ("format_", "num_col_", "num_row_", "start_", "index_", "value_"),
    "HighsInfo": ("mip_node_count", "mip_dual_bound"),
    "HighsSolution": ("col_value", "row_dual", "value_valid"),
    "HighsVarType": ("kContinuous", "kInteger"),
    "MatrixFormat": ("kColwise",),
    "HighsModelStatus": ("kOptimal", "kSolutionLimit"),
    "HighsStatus": ("kError",),
}


def test_private_highs_binding_has_every_method_used():
    # scipy.optimize._highspy is private API; a scipy that renames a piece
    # of it should fail here rather than inside a solver run.
    missing = [name for name in HIGHS_METHODS if not hasattr(highs_core._Highs, name)]
    missing += [
        f"{owner}.{name}"
        for owner, names in HIGHS_NAMES.items()
        for name in names
        if not hasattr(getattr(highs_core, owner, None), name)
    ]
    assert not missing, f"scipy {scipy.__version__}: the HiGHS binding lacks {missing}"


def fresh_lp_value(A):
    """Value of the matrix game A by one independent scipy.optimize.linprog call."""
    m, k = A.shape
    res = linprog(
        np.append(np.zeros(m), -1.0),
        A_ub=np.hstack([-A.T, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.append(np.ones(m), 0.0)[None, :],
        b_eq=[1.0],
        bounds=[(0.0, None)] * m + [(None, None)],
        method="highs",
    )
    assert res.status == 0
    return float(res.x[-1])


def label(i):
    return point(float(i))


def lp_weights(mg):
    """The normalized p and q of the last HiGHS solution held by ``mg``."""
    solution = mg._lp.highs.getSolution()
    p = np.clip(np.asarray(solution.col_value)[1:], 0.0, None)
    q = np.clip(-np.asarray(solution.row_dual)[1:], 0.0, None)
    return p / p.sum(), q / q.sum()


def assert_merged(mix, labels, weights):
    want = merge_duplicates(labels, weights)
    assert mix.atoms == want.atoms
    assert mix.weights == want.weights  # bit-equal


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 7),
    k=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "duplicate_rows", "constant"]),
    data=st.data(),
)
def test_growing_subgame_matches_a_fresh_lp(m, k, seed, kind, data):
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(m, k))
    if kind == "duplicate_rows":
        full[rng.integers(0, m, size=m // 2 + 1)] = full[0]
    elif kind == "constant":
        full[:] = float(rng.normal())
    order = data.draw(st.permutations(["row"] * (m - 1) + ["col"] * (k - 1)))

    mg = MatrixGame(full[:1, :1], (label(0),), (label(0),))
    _, _, value = solve_zero_sum(mg)
    assert value == pytest.approx(full[0, 0], abs=VALUE_TOL)
    rows = cols = 1
    for step in order:
        if step == "row":
            mg.add_row(label(rows), full[rows, :cols])
            rows += 1
        else:
            mg.add_col(label(cols), full[:rows, cols])
            cols += 1
        p, q, value = solve_zero_sum(mg)
        assert np.array_equal(mg.payoff, full[:rows, :cols])
        assert abs(value - fresh_lp_value(full[:rows, :cols])) <= VALUE_TOL
        # The value is p^T A q over the mixtures' atoms, bit for bit.
        held = full[np.ix_(
            [int(a.coords[0]) for a in p.atoms], [int(b.coords[0]) for b in q.atoms]
        )]
        assert value == float(p.weights_array() @ held @ q.weights_array())
        p_vec, q_vec = lp_weights(mg)
        assert_merged(p, mg.rows.points, p_vec)
        assert_merged(q, mg.cols.points, q_vec)


class FlakyHighs:
    """A real HiGHS model whose first ``failures`` solves report a solve error."""

    made = []

    def __init__(self, failures):
        self.inner = highs_core._Highs()
        self.failures = failures
        self.runs = 0
        self.clears = 0
        FlakyHighs.made.append(self)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self):
        self.runs += 1
        return self.inner.run()

    def clearSolver(self):
        self.clears += 1
        return self.inner.clearSolver()

    def getModelStatus(self):
        if self.runs <= self.failures:
            return highs_core.HighsModelStatus.kSolveError
        return self.inner.getModelStatus()


def grown_pennies(monkeypatch, failures):
    """Matching pennies solved once, then grown by one row, on a flaky model."""
    FlakyHighs.made.clear()
    monkeypatch.setattr(matrix_game, "_Highs", lambda: FlakyHighs(0))
    mg = subgame_matrix(*embed_matrix_game(PENNIES))
    solve_zero_sum(mg)
    flaky = FlakyHighs.made[0]
    flaky.failures = flaky.runs + failures
    mg.add_row(label(2), [2.0, -2.0])
    return mg, flaky


def test_failed_warm_solve_is_retried_once_from_scratch(monkeypatch):
    mg, flaky = grown_pennies(monkeypatch, failures=1)
    runs = flaky.runs
    _, _, value = solve_zero_sum(mg)
    assert (flaky.runs - runs, flaky.clears) == (2, 1)
    assert value == pytest.approx(fresh_lp_value(mg.payoff), abs=VALUE_TOL)


def test_failed_cold_retry_raises(monkeypatch):
    mg, flaky = grown_pennies(monkeypatch, failures=2)
    with pytest.raises(ModelError, match="Solve error"):
        solve_zero_sum(mg)
    assert flaky.clears == 1
