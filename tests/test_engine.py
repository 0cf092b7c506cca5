import numpy as np
import pytest

from double_oracle import (
    FinitePointOracle,
    GridSearchOracle,
    OracleAnswer,
    OracleContractError,
    ParameterError,
    bounds_from_profile,
    dirac,
    duplicate_first_axis,
    embed_matrix_game,
    expected_utility,
    make_polynomial_game,
    point,
    run_double_oracle,
    run_fictitious_play,
)
from double_oracle.engine import _absorb
from double_oracle.one_dim import POLYNOMIAL_LIPSCHITZ

RPS = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]


def finite_setup(payoff):
    game, rows, cols = embed_matrix_game(payoff)
    o1 = FinitePointOracle(game, 1, rows)
    o2 = FinitePointOracle(game, 2, cols)
    return game, o1, o2, rows, cols


def polynomial_setup(resolution=1e-4):
    game = make_polynomial_game()
    o1 = GridSearchOracle(game, 1, resolution, POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, resolution, POLYNOMIAL_LIPSCHITZ)
    return game, o1, o2


def test_finite_game_closes_exactly():
    game, o1, o2, rows, cols = finite_setup(RPS)
    res = run_double_oracle(game, o1, o2, [rows[0]], [cols[0]], epsilon=0.0)
    assert res.terminated_by == "gap"
    assert res.gap <= 1e-7
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.iterations <= len(RPS) + len(RPS[0])


def test_polynomial_benchmark_from_origin():
    game, o1, o2 = polynomial_setup()
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-3)
    assert res.terminated_by == "gap"
    assert res.value == pytest.approx(-0.48, abs=1e-3)
    assert res.iterations <= 50


def test_strategy_sets_grow_by_at_most_one():
    game, o1, o2 = polynomial_setup(1e-3)
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-3)
    for prev, cur in zip(res.trace, res.trace[1:]):
        assert cur.size_x - prev.size_x in (0, 1)
        assert cur.size_y - prev.size_y in (0, 1)
    assert res.trace[0].size_x == 1 and res.trace[0].size_y == 1


def test_bounds_sandwich_every_iteration():
    game, o1, o2 = polynomial_setup()
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-3)
    slack = o1.accuracy + 1e-9
    for rec in res.trace:
        # the subgame value and true value both sit inside the bracket
        assert rec.lower - slack <= rec.subgame_value <= rec.upper + slack
        assert rec.lower - slack <= -0.48 <= rec.upper + slack
        assert rec.gap >= -2 * o1.accuracy


def test_no_new_points_means_tiny_gap():
    # seeding the full strategy sets forces the first subgame to be the whole
    # game, so its oracles cannot improve on the equilibrium
    game, o1, o2, rows, cols = finite_setup([[1.0, -1.0], [-1.0, 1.0]])
    res = run_double_oracle(game, o1, o2, rows, cols, epsilon=0.0)
    assert res.iterations == 1
    assert res.trace[0].gap <= 1e-7


def test_result_values_match_returned_mixtures():
    game, o1, o2 = polynomial_setup()
    res = run_double_oracle(game, o1, o2, [point(0.3)], [point(-0.5)], epsilon=1e-3)
    assert expected_utility(res.p_star, res.q_star, game) == pytest.approx(
        res.value, abs=1e-12
    )
    lo, hi = bounds_from_profile(game, res.p_star, res.q_star, o1, o2)
    assert hi - lo <= 1e-3 + 2 * o1.accuracy + 1e-9


def test_iteration_cap_is_a_normal_outcome():
    game, o1, o2 = polynomial_setup()
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                            epsilon=1e-12, max_iters=2)
    assert res.terminated_by == "iteration_cap"
    assert res.iterations == 2
    assert res.p_star.support_size >= 1


def test_duplicate_initial_points_are_merged():
    game, o1, o2 = polynomial_setup(1e-3)
    res = run_double_oracle(
        game, o1, o2, [point(0.0), point(0.0), point(5e-10)], [point(0.0)],
        epsilon=1e-3,
    )
    assert res.trace[0].size_x == 1


def test_parameter_validation():
    game, o1, o2 = polynomial_setup(1e-2)
    with pytest.raises(ParameterError):
        run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=-1.0)
    with pytest.raises(ParameterError):
        run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], max_iters=0)
    with pytest.raises(ParameterError):
        run_double_oracle(game, o1, o2, [], [point(0.0)])


def test_lying_oracle_is_caught():
    game, o1, o2 = polynomial_setup(1e-2)

    class Liar:
        accuracy = 0.0

        def respond(self, opponent):
            return OracleAnswer(point(17.0), 0.0)

    with pytest.raises(OracleContractError, match="player 1"):
        run_double_oracle(game, Liar(), o2, [point(0.0)], [point(0.0)])


def test_value_lying_oracle_is_caught():
    game, o1, o2 = polynomial_setup(1e-2)

    class ValueLiar:
        accuracy = 0.0

        def respond(self, opponent):
            return OracleAnswer(point(0.5), -5.0)

    with pytest.raises(OracleContractError, match="player 1"):
        run_double_oracle(game, ValueLiar(), o2, [point(0.0)], [point(0.0)])


class Overstating:
    """Answers like ``inner`` but reports 0.5 more than its point earns."""

    def __init__(self, inner):
        self.inner = inner
        self.accuracy = inner.accuracy

    def respond(self, opponent):
        answer = self.inner.respond(opponent)
        return OracleAnswer(answer.point, answer.value + 0.5)


@pytest.mark.parametrize("solver", ["double_oracle", "fictitious_play"])
def test_value_overstating_oracle_is_caught(solver):
    # The inflated upper bound sits above the subgame value, so only the
    # recheck of the value against the returned point can catch it.
    game, o1, o2 = polynomial_setup(1e-2)
    with pytest.raises(OracleContractError, match="player 1"):
        if solver == "double_oracle":
            run_double_oracle(game, Overstating(o1), o2, [point(0.0)], [point(0.0)])
        else:
            run_fictitious_play(game, Overstating(o1), o2, point(0.0), point(0.0), iters=3)


def test_bounds_from_profile_rechecks_values():
    game, o1, o2 = polynomial_setup(1e-2)
    with pytest.raises(OracleContractError, match="player 2"):
        bounds_from_profile(game, dirac(point(0.0)), dirac(point(0.0)), o1, Overstating(o2))


def test_absorb_returns_the_first_match_in_insertion_order():
    held = [point(0.5), point(0.2), point(0.2 + 5e-10)]
    assert _absorb(held, point(0.2 + 2e-10)) == 1  # within 1e-9 of both 1 and 2
    assert _absorb(held, point(0.5)) == 0
    assert len(held) == 3
    assert _absorb(held, point(0.9)) == 3
    assert held[3] == point(0.9)


def test_streaming_callback_sees_every_record():
    game, o1, o2 = polynomial_setup(1e-3)
    seen = []
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                            epsilon=1e-3, on_iteration=seen.append)
    assert seen == res.trace


def test_bounds_from_profile_at_a_bad_guess():
    game, o1, o2 = polynomial_setup()
    lo, hi = bounds_from_profile(game, dirac(point(0.0)), dirac(point(0.0)), o1, o2)
    # playing 0 loses to y = 1 (payoff -1); against y = 0 the best reply
    # payoff is max over x of -2 x^2, which is 0
    assert lo == pytest.approx(-1.0, abs=o1.accuracy + 1e-12)
    assert hi == pytest.approx(0.0, abs=o1.accuracy + 1e-12)
    assert lo <= -0.48 <= hi


def test_tiled_interval_still_solves():
    game = duplicate_first_axis(make_polynomial_game())
    o1 = GridSearchOracle(game, 1, 1e-4, 2 * POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, 1e-4, POLYNOMIAL_LIPSCHITZ)
    res = run_double_oracle(game, o1, o2, [point(0.5)], [point(0.0)], epsilon=1e-3)
    assert res.terminated_by == "gap"
    assert res.value == pytest.approx(-0.48, abs=1e-3)
    for atom in res.p_star.atoms:
        assert game.space1.contains(atom)
