import numpy as np
import pytest

from double_oracle import (
    Box,
    DomainError,
    FinitePointOracle,
    GameDefinition,
    GridSearchOracle,
    OracleAnswer,
    ParameterError,
    dirac,
    expected_utility,
    make_polynomial_game,
    make_townsend_game,
    merge_duplicates,
    embed_matrix_game,
    point,
    run_fictitious_play,
)
from double_oracle.one_dim import POLYNOMIAL_LIPSCHITZ, TOWNSEND_LIPSCHITZ


def pennies_setup():
    game, rows, cols = embed_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
    o1 = FinitePointOracle(game, 1, rows)
    o2 = FinitePointOracle(game, 2, cols)
    return game, o1, o2, rows, cols


def test_single_profile_game_is_solved_immediately():
    game, rows, cols = embed_matrix_game([[0.7]])
    o1 = FinitePointOracle(game, 1, rows)
    o2 = FinitePointOracle(game, 2, cols)
    res = run_fictitious_play(game, o1, o2, rows[0], cols[0], iters=5)
    for rec in res.trace:
        assert rec.lower == rec.upper == pytest.approx(0.7)
        assert rec.size_x == rec.size_y == 1
    assert res.empirical1.atoms == (rows[0],)


def test_matching_pennies_converges_to_uniform():
    game, o1, o2, rows, cols = pennies_setup()
    res = run_fictitious_play(game, o1, o2, rows[0], cols[0], iters=2000)
    for w in res.empirical1.weights + res.empirical2.weights:
        assert w == pytest.approx(0.5, abs=0.05)
    assert res.gap <= 0.05


def test_trace_has_one_row_per_round():
    game, o1, o2, rows, cols = pennies_setup()
    res = run_fictitious_play(game, o1, o2, rows[0], cols[0], iters=37)
    assert [rec.index for rec in res.trace] == list(range(1, 38))


def test_returned_mixtures_match_last_row():
    game, o1, o2, rows, cols = pennies_setup()
    res = run_fictitious_play(game, o1, o2, rows[0], cols[1], iters=25)
    last = res.trace[-1]
    assert expected_utility(res.empirical1, res.empirical2, game) == pytest.approx(
        last.subgame_value, abs=1e-12
    )
    assert (res.empirical1.support_size, res.empirical2.support_size) == (
        last.size_x,
        last.size_y,
    )


def test_empirical_mixtures_are_the_merged_history():
    game = make_polynomial_game()
    o1 = GridSearchOracle(game, 1, 1e-3, POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, 1e-3, POLYNOMIAL_LIPSCHITZ)
    res = run_fictitious_play(game, o1, o2, point(0.1), point(-0.3), iters=60)
    # the responses of the last round are not appended
    history1 = [point(0.1)] + [rec.added_x for rec in res.trace[:-1]]
    history2 = [point(-0.3)] + [rec.added_y for rec in res.trace[:-1]]
    assert res.empirical2.support_size < len(history2)  # repeated responses fold
    for got, history in ((res.empirical1, history1), (res.empirical2, history2)):
        want = merge_duplicates(history, np.ones(len(history)))
        assert got.atoms == want.atoms
        assert np.abs(np.subtract(got.weights, want.weights)).max() <= 1e-15


def test_near_duplicate_responses_count_toward_the_first():
    class Jitter:
        """Player 1 answers 0.25 and 0.25 + 1e-12 in turn (both earn 0)."""

        accuracy = 0.0

        def __init__(self):
            self.calls = 0

        def respond(self, opponent):
            self.calls += 1
            return OracleAnswer(point(0.25 + (self.calls % 2) * 1e-12), 0.0)

    game = GameDefinition(Box((0.0,), (1.0,)), Box((0.0,), (1.0,)), lambda x, y: 0.0 * (x + y)[..., 0])
    res = run_fictitious_play(game, Jitter(), Jitter(), point(0.25), point(0.75), iters=4)
    assert res.empirical1.atoms == (point(0.25),)
    assert res.empirical2.atoms == (point(0.75), point(0.25 + 1e-12))
    assert res.empirical2.weights == (0.25, 0.75)


# ------------------------------------- grid oracles' running responders

GRID_GAMES = {
    "g1": (make_polynomial_game, POLYNOMIAL_LIPSCHITZ),
    "g2": (make_townsend_game, TOWNSEND_LIPSCHITZ),
}
GRID_ROUNDS = 200


def grid_oracles(name):
    make, lipschitz = GRID_GAMES[name]
    game = make()
    return game, GridSearchOracle(game, 1, 1e-4, lipschitz), GridSearchOracle(game, 2, 1e-4, lipschitz)


class RespondOnly:
    """Exposes only ``respond`` and ``accuracy`` of the oracle it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.accuracy = inner.accuracy
        self.calls = 0

    def respond(self, opponent):
        self.calls += 1
        return self.inner.respond(opponent)


@pytest.fixture(scope="module", params=sorted(GRID_GAMES))
def grid_run(request):
    """Fictitious play from 0.0 with grid oracles, and the responders it made."""
    game, o1, o2 = grid_oracles(request.param)
    made = {}
    for player, oracle in ((1, o1), (2, o2)):
        def running(inner=oracle.running, player=player):
            made[player] = inner()
            return made[player]

        oracle.running = running
    res = run_fictitious_play(game, o1, o2, point(0.0), point(0.0), iters=GRID_ROUNDS)
    return request.param, game, (o1, o2), made, res


def round_mixtures(trace, init1, init2):
    """The empirical mixtures (player 1, player 2) each round of ``trace`` faced."""
    history1, history2 = [init1], [init2]
    for rec in trace:
        yield (
            merge_duplicates(history1, np.ones(len(history1))),
            merge_duplicates(history2, np.ones(len(history2))),
        )
        history1.append(rec.added_x)
        history2.append(rec.added_y)


def test_running_answers_match_a_fresh_oracle(grid_run):
    name, game, _, made, res = grid_run
    assert set(made) == {1, 2}
    _, fresh1, fresh2 = grid_oracles(name)
    for rec, (mix1, mix2) in zip(res.trace, round_mixtures(res.trace, point(0.0), point(0.0))):
        for got, value, want, earned in (
            (rec.added_x, rec.upper, fresh1.respond(mix2),
             lambda pt: expected_utility(dirac(pt), mix2, game)),
            (rec.added_y, rec.lower, fresh2.respond(mix1),
             lambda pt: expected_utility(mix1, dirac(pt), game)),
        ):
            assert abs(value - want.value) <= 1e-12
            if got != want.point:  # a near-tie: both points must be best
                assert abs(earned(got) - want.value) <= 1e-12
                assert abs(earned(want.point) - want.value) <= 1e-12


def test_running_sums_are_the_counted_columns(grid_run):
    """At every grid point a responder holds, its sum is the count-weighted sum of payoffs."""
    _, game, _, made, res = grid_run
    for player, responder, opponent in ((1, made[1], res.empirical2), (2, made[2], res.empirical1)):
        counts = np.rint(opponent.weights_array() * GRID_ROUNDS)
        assert counts.sum() == responder.count == GRID_ROUNDS
        space = game.space1 if player == 1 else game.space2
        idx = np.concatenate((responder._oracle._ends, responder._idx))
        held = np.concatenate((responder._ends, responder._sums[responder._idx]))
        pts = np.sort(space.grid_points(1e-4))[idx, None]
        want = sum(
            c * (game.utility(pts, atom.array()) if player == 1 else game.utility(atom.array(), pts))
            for c, atom in zip(counts, opponent.atoms)
        )
        assert np.abs(held - want).max() <= 1e-12 * np.abs(want).max()


def test_oracles_without_running_are_asked_every_round(grid_run):
    name, game, _, _, res = grid_run
    _, o1, o2 = grid_oracles(name)
    p1, p2 = RespondOnly(o1), RespondOnly(o2)
    generic = run_fictitious_play(game, p1, p2, point(0.0), point(0.0), iters=30)
    assert p1.calls == p2.calls == 30
    for a, b in zip(generic.trace, res.trace):
        assert (a.added_x, a.added_y) == (b.added_x, b.added_y)
        assert abs(a.upper - b.upper) <= 1e-12
        assert abs(a.lower - b.lower) <= 1e-12
        assert abs(a.subgame_value - b.subgame_value) <= 1e-12


def test_bounds_bracket_polynomial_value():
    game = make_polynomial_game()
    o1 = GridSearchOracle(game, 1, 1e-3, POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, 1e-3, POLYNOMIAL_LIPSCHITZ)
    res = run_fictitious_play(game, o1, o2, point(0.0), point(0.0), iters=300)
    slack = o1.accuracy + 1e-9
    for rec in res.trace:
        assert rec.lower - slack <= -0.48 <= rec.upper + slack
    # empirical averages creep toward the value but converge slowly
    assert res.gap < 1.0


def test_runs_are_deterministic():
    game = make_polynomial_game()
    o1 = GridSearchOracle(game, 1, 1e-3, POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, 1e-3, POLYNOMIAL_LIPSCHITZ)
    a = run_fictitious_play(game, o1, o2, point(0.1), point(-0.3), iters=60)
    b = run_fictitious_play(game, o1, o2, point(0.1), point(-0.3), iters=60)
    assert [(r.lower, r.upper, r.subgame_value) for r in a.trace] == [
        (r.lower, r.upper, r.subgame_value) for r in b.trace
    ]


def test_input_validation():
    game, o1, o2, rows, cols = pennies_setup()
    with pytest.raises(ParameterError):
        run_fictitious_play(game, o1, o2, rows[0], cols[0], iters=0)
    with pytest.raises(DomainError):
        run_fictitious_play(game, o1, o2, point(9.0), cols[0], iters=3)
