import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from double_oracle import (
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    GridSearchOracle,
    IntervalUnion,
    ParameterError,
    Simplex,
    dirac,
    duplicate_first_axis,
    grid_best_response,
    make_polynomial_game,
    make_townsend_game,
    merge_duplicates,
    point,
    pure_utility,
)
from double_oracle.one_dim import (
    POLYNOMIAL_LIPSCHITZ,
    TOWNSEND_LIPSCHITZ,
    polynomial_utility,
)

Q_STAR = FiniteMixedStrategy((point(1.0), point(-1.0)), (0.78, 0.22))


# ------------------------------------------------------------ game payoffs

def test_polynomial_payoffs():
    game = make_polynomial_game()
    assert pure_utility(game, point(0.2), point(1.0)) == pytest.approx(-0.48, abs=1e-15)
    assert pure_utility(game, point(0.0), point(0.0)) == 0.0
    assert pure_utility(game, point(1.0), point(1.0)) == pytest.approx(0.0, abs=1e-15)
    assert game.space1 == Box((-1.0,), (1.0,))
    assert game.space2 == Box((-1.0,), (1.0,))


def test_townsend_payoffs():
    game = make_townsend_game()
    assert pure_utility(game, point(0.0), point(0.0)) == pytest.approx(-1.0)
    assert pure_utility(game, point(0.0), point(1.0)) == pytest.approx(
        -0.9900332889206209, abs=1e-12
    )
    # with x = 0.1 the cosine factor pins at -1 and only the sine term moves
    for y in (-2.0, 0.0, 1.5):
        assert pure_utility(game, point(0.1), point(y)) == pytest.approx(
            -1.0 - 0.1 * math.sin(0.3 + y), abs=1e-12
        )
    assert game.space1 == Box((-2.25,), (2.5,))
    assert game.space2 == Box((-2.5,), (1.75,))


# ------------------------------------------------------------ grid search

def test_best_response_to_equilibrium_mixture():
    game = make_polynomial_game()
    ans = grid_best_response(Q_STAR, game, player=1)
    assert ans.point.coords[0] == pytest.approx(0.2, abs=1e-9)
    assert ans.value == pytest.approx(-0.48, abs=1e-9)


def test_minimizer_pushes_to_an_endpoint():
    # against x = 0.2 the payoff is -0.08 - 0.4 y^2, minimized at y = +-1
    game = make_polynomial_game()
    ans = grid_best_response(dirac(point(0.2)), game, player=2)
    assert abs(ans.point.coords[0]) == 1.0
    assert ans.value == pytest.approx(-0.48, abs=1e-9)


def test_constant_game_returns_leftmost_point():
    unit = Box((0.0,), (1.0,))
    flat = GameDefinition(unit, unit, lambda x, y: np.broadcast_arrays(
        x[..., 0], y[..., 0])[0] * 0.0 + 3.25)
    for player in (1, 2):
        ans = grid_best_response(dirac(point(0.5)), flat, player, resolution=0.1)
        assert ans.point.coords[0] == 0.0
        assert ans.value == 3.25


def test_answer_dominates_every_grid_point():
    game = make_polynomial_game()
    oracle = GridSearchOracle(game, 1, resolution=0.01)
    rng = np.random.default_rng(3)
    grid = game.space1.grid_points(0.01)
    for _ in range(5):
        atoms = [point(float(v)) for v in rng.uniform(-1, 1, size=3)]
        mix = merge_duplicates(atoms, rng.dirichlet(np.ones(3)))
        ans = oracle.respond(mix)
        vals = [
            sum(w * float(polynomial_utility(np.array([g]), a.array()))
                for a, w in zip(mix.atoms, mix.weights))
            for g in grid
        ]
        assert ans.value >= max(vals) - 1e-12


def test_finer_grids_never_hurt_the_maximizer():
    game = make_polynomial_game()
    # 0.25 divides 0.5, so the coarse grid is a subset of the fine one
    coarse = grid_best_response(Q_STAR, game, 1, resolution=0.5)
    fine = grid_best_response(Q_STAR, game, 1, resolution=0.25)
    assert fine.value >= coarse.value - 1e-12


@given(
    w=st.floats(0.0, 1.0),
    y1=st.floats(-1.0, 1.0),
    y2=st.floats(-1.0, 1.0),
)
def test_grid_value_within_declared_accuracy(w, y1, y2):
    """Grid maximum vs the exact maximum of the quadratic in x."""
    game = make_polynomial_game()
    mix = merge_duplicates([point(y1), point(y2)], [w, 1.0 - w])
    res = 0.01
    ans = grid_best_response(mix, game, 1, resolution=res,
                             lipschitz=POLYNOMIAL_LIPSCHITZ)

    # U(x, mix) = -2 x^2 + (5 m1 - 2 m2) x - m1 where m1 = E[y], m2 = E[y^2]
    ws = np.array([w, 1.0 - w]) / 1.0
    m1 = float(ws @ [y1, y2])
    m2 = float(ws @ [y1**2, y2**2])
    b = 5 * m1 - 2 * m2
    x_opt = min(1.0, max(-1.0, b / 4.0))
    exact = -2 * x_opt**2 + b * x_opt - m1

    accuracy = POLYNOMIAL_LIPSCHITZ * res / 2
    assert ans.value <= exact + 1e-9
    assert ans.value >= exact - accuracy - 1e-9


@pytest.mark.parametrize("player", [1, 2])
def test_oracle_answers_do_not_depend_on_earlier_queries(player):
    game = make_townsend_game()
    opponent_space = game.space2 if player == 1 else game.space1
    rng = np.random.default_rng(11)
    pool = [opponent_space.sample(rng) for _ in range(6)]
    queries = [
        merge_duplicates([pool[i] for i in rng.permutation(6)[:4]], rng.dirichlet(np.ones(4)))
        for _ in range(5)
    ]

    def make():
        return GridSearchOracle(game, player, 1e-3, TOWNSEND_LIPSCHITZ)

    def bits(ans):
        return ans.point.coords, ans.value.hex()

    fresh = [bits(make().respond(q)) for q in queries]
    warm = make()
    # the shared atoms enter the cache in another order than the queries list them
    backwards = [bits(warm.respond(q)) for q in reversed(queries)]
    assert backwards[::-1] == fresh
    assert [bits(warm.respond(q)) for q in queries] == fresh


def test_accuracy_attribute():
    game = make_polynomial_game()
    assert GridSearchOracle(game, 1, 1e-4, POLYNOMIAL_LIPSCHITZ).accuracy == pytest.approx(8e-4)
    assert GridSearchOracle(game, 2, 1e-4).accuracy == 0.0
    assert TOWNSEND_LIPSCHITZ * 1e-4 / 2 == pytest.approx(1e-3)


def test_oracle_parameter_validation():
    game = make_polynomial_game()
    with pytest.raises(ParameterError):
        GridSearchOracle(game, 3)
    with pytest.raises(ParameterError):
        GridSearchOracle(game, 1, resolution=-0.1)
    with pytest.raises(ParameterError):
        GridSearchOracle(game, 1, lipschitz=-1.0)


# ------------------------------------------------------------ tiled games

def test_tiled_game_repeats_payoffs():
    base = make_polynomial_game()
    tiled = duplicate_first_axis(base)
    assert isinstance(tiled.space1, IntervalUnion)
    assert tiled.space2 == base.space2
    for s, y in [(0.6, 0.3), (0.0, -1.0), (1.0, 0.5)]:
        mapped = -1.0 + 2.0 * s
        want = pure_utility(base, point(mapped), point(y))
        assert pure_utility(tiled, point(s), point(y)) == pytest.approx(want, abs=1e-12)
        assert pure_utility(tiled, point(s + 2.0), point(y)) == pytest.approx(
            want, abs=1e-12
        )


def test_tiling_requires_one_dimensional_box():
    blotto_like = GameDefinition(Simplex(3), Simplex(3), lambda x, y: x[..., 0])
    with pytest.raises(ParameterError):
        duplicate_first_axis(blotto_like)
