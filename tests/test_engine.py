import dataclasses
import math
import time

import numpy as np
import pytest

import double_oracle.engine as engine
from double_oracle import (
    BlottoGame,
    BlottoGridOracle,
    BlottoMilpOracle,
    Box,
    DomainError,
    FiniteMixedStrategy,
    FinitePointOracle,
    GameDefinition,
    GridSearchOracle,
    ModelError,
    OracleAnswer,
    OracleContractError,
    ParameterError,
    PointSet,
    bounds_from_profile,
    dirac,
    duplicate_first_axis,
    embed_matrix_game,
    expected_utility,
    make_polynomial_game,
    make_townsend_game,
    merge_duplicates,
    point,
    run_double_oracle,
    run_fictitious_play,
)
from double_oracle.blotto import game_definition
from double_oracle.one_dim import EXTRA_PEAKS, POLYNOMIAL_LIPSCHITZ, TOWNSEND_LIPSCHITZ
from double_oracle.oracles import EXTRA_RESPONSES

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


def growth_steps(res):
    """Every amount by which an axis of the subgame grew between two iterations."""
    steps = set()
    for prev, cur in zip(res.trace, res.trace[1:]):
        steps |= {cur.size_x - prev.size_x, cur.size_y - prev.size_y}
    return steps


def test_strategy_sets_grow_by_at_most_the_answer_and_its_extras():
    game, o1, o2 = polynomial_setup(1e-3)
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-3)
    steps = growth_steps(res)
    assert steps <= set(range(EXTRA_PEAKS + 2))
    assert max(steps) > 1  # the extras were added
    assert res.trace[0].size_x == 1 and res.trace[0].size_y == 1


def test_lattice_sets_grow_by_at_most_the_answer_and_its_extras():
    bg = BlottoGame(3, (1.0, 1.1, 0.95), 1 / 16)
    corners = [point(1.0, 0.0, 0.0), point(0.0, 1.0, 0.0), point(0.0, 0.0, 1.0)]
    o1, o2 = BlottoGridOracle(bg, 1), BlottoGridOracle(bg, 2)
    res = run_double_oracle(game_definition(bg), o1, o2, corners, corners, epsilon=1e-6)
    assert res.terminated_by == "gap"
    steps = growth_steps(res)
    assert steps <= set(range(EXTRA_RESPONSES + 2))
    assert max(steps) > 3  # more extras than the grid oracle returns


@pytest.mark.parametrize("make, lipschitz", [
    (make_polynomial_game, POLYNOMIAL_LIPSCHITZ), (make_townsend_game, TOWNSEND_LIPSCHITZ)
])
def test_run_stops_once_an_iteration_adds_nothing(monkeypatch, make, lipschitz):
    # Below the subgame LP's error the gap cannot close; once the sets stop
    # growing, every further iteration would repeat the last one.
    calls = counting_extensions(monkeypatch)
    game = make()
    o1 = GridSearchOracle(game, 1, 1e-4, lipschitz)
    o2 = GridSearchOracle(game, 2, 1e-4, lipschitz)
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-8)
    assert res.terminated_by == "stalled"
    assert res.iterations < 50
    assert res.gap > 1e-8
    # the last iteration tried to grow the subgame and added nothing
    assert len(calls) == res.iterations


def test_which_oracles_return_extras():
    # The exhaustive oracles return their next-best candidates; the MILP
    # oracle and fictitious play's running responder return none.
    game, o1, o2, rows, cols = finite_setup(RPS)
    assert o1.respond(dirac(cols[0])).extra == (rows[0], rows[2])
    assert o2.respond(dirac(rows[0])).extra == (cols[0], cols[2])
    bg = BlottoGame(3, (1.0, 1.0, 1.0), 0.25)
    corner = dirac(point(1.0, 0.0, 0.0))
    answer = BlottoGridOracle(bg, 1).respond(corner)
    assert len(answer.extra) == EXTRA_RESPONSES and answer.point not in answer.extra
    assert BlottoMilpOracle(bg, 2).respond(corner).extra == ()
    _, g1, _ = polynomial_setup(1e-3)
    responder = g1.running()
    responder.add(point(0.3))
    assert responder.respond().extra == ()
    assert g1.respond(dirac(point(0.3))).extra


def table_game(payoff):
    """A finite game on the indices of ``payoff``, which may hold infinities."""
    m, k = payoff.shape

    def lookup(x, y):
        return payoff[np.rint(x[..., 0]).astype(int), np.rint(y[..., 0]).astype(int)]

    game = GameDefinition(Box((0.0,), (m - 1.0,)), Box((0.0,), (k - 1.0,)), lookup)
    return game, [point(float(i)) for i in range(m)], [point(float(j)) for j in range(k)]


def test_finite_point_extras_follow_a_brute_force_ranking():
    # Small integer payoffs and weights in eighths keep every sum exact, so
    # repeated rows tie exactly; a row (column) of -inf (+inf) is a
    # candidate with a non-finite value that must never be returned.
    rng = np.random.default_rng(11)
    for trial in range(60):
        player = 1 + trial % 2
        m = int(rng.integers(1, 9))
        distinct = rng.integers(-3, 4, size=(3, 6)).astype(float)
        lines = distinct[rng.integers(0, 3, size=m)]
        lines[rng.random(m) < 0.2] = -np.inf if player == 1 else np.inf
        if np.isinf(lines[:, 0]).all():
            lines[0] = distinct[0]
        payoff = lines if player == 1 else lines.T
        game, rows, cols = table_game(payoff)
        support = int(rng.integers(1, 5))
        atoms = rng.choice(6, size=support, replace=False)
        cuts = np.sort(rng.choice(np.arange(1, 8), size=support - 1, replace=False))
        weights = np.diff(np.r_[0, cuts, 8]) / 8.0
        own, other = (rows, cols) if player == 1 else (cols, rows)
        mix = FiniteMixedStrategy(tuple(other[j] for j in atoms), tuple(weights))
        values = lines[:, atoms] @ weights
        sign = 1.0 if player == 1 else -1.0
        ranking = sorted(
            (i for i in range(m) if math.isfinite(values[i])), key=lambda i: (-sign * values[i], i)
        )
        answer = FinitePointOracle(game, player, own).respond(mix)
        assert answer.point == own[ranking[0]]
        assert answer.value == values[ranking[0]]
        assert answer.extra == tuple(own[i] for i in ranking[1 : EXTRA_RESPONSES + 1])


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


def counting_extensions(monkeypatch):
    """Every call the engine makes to grow its subgame."""
    calls = []
    inner = engine.extend_subgame

    def extend(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(engine, "extend_subgame", extend)
    return calls


@pytest.mark.parametrize(
    "epsilon, max_iters, ending", [(1e-12, 2, "iteration_cap"), (1e-3, 1000, "gap")]
)
def test_subgame_grows_only_when_another_iteration_follows(
    monkeypatch, epsilon, max_iters, ending
):
    calls = counting_extensions(monkeypatch)
    game, o1, o2 = polynomial_setup()
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                            epsilon=epsilon, max_iters=max_iters)
    assert res.terminated_by == ending
    assert len(calls) == res.iterations - 1


def test_duplicate_initial_points_are_merged():
    game, o1, o2 = polynomial_setup(1e-3)
    res = run_double_oracle(
        game, o1, o2, [point(0.0), point(0.0), point(5e-10)], [point(0.0)],
        epsilon=1e-3,
    )
    assert res.trace[0].size_x == 1


def test_parameter_validation():
    game, o1, o2 = polynomial_setup(1e-2)
    # an infinite epsilon would end on "gap" after one iteration, certifying nothing
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=bad)
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
    """Answers like ``inner`` but reports ``shift`` more than its point earns."""

    def __init__(self, inner, shift=0.5):
        self.inner = inner
        self.shift = shift
        self.accuracy = inner.accuracy

    def respond(self, opponent):
        answer = self.inner.respond(opponent)
        return OracleAnswer(answer.point, answer.value + self.shift)


@pytest.mark.parametrize("solver, shift", [
    pytest.param("double_oracle", 0.5, id="double_oracle"),
    pytest.param("fictitious_play", 0.5, id="fictitious_play"),
    # A NaN value fails every comparison, so a check must reject what is
    # not within tolerance, not only what is beyond it.
    pytest.param("double_oracle", math.nan, id="double_oracle-nan"),
    pytest.param("fictitious_play", math.nan, id="fictitious_play-nan"),
])
def test_value_overstating_oracle_is_caught(solver, shift):
    # The inflated upper bound sits above the subgame value, so only the
    # recheck of the value against the returned point can catch it.
    game, o1, o2 = polynomial_setup(1e-2)
    liar = Overstating(o1, shift)
    with pytest.raises(OracleContractError, match="player 1"):
        if solver == "double_oracle":
            run_double_oracle(game, liar, o2, [point(0.0)], [point(0.0)])
        else:
            run_fictitious_play(game, liar, o2, point(0.0), point(0.0), iters=3)


def test_bounds_from_profile_rechecks_values():
    game, o1, o2 = polynomial_setup(1e-2)
    for shift in (0.5, math.nan):
        with pytest.raises(OracleContractError, match="player 2"):
            bounds_from_profile(
                game, dirac(point(0.0)), dirac(point(0.0)), o1, Overstating(o2, shift)
            )


def nan_corner_setup():
    """u(x, y) = x y on [0, 1]^2 but NaN at (1, 1), with oracles over {0, 0.5, 1}."""
    unit = Box((0.0,), (1.0,))

    def utility(x, y):
        x, y = np.broadcast_arrays(x[..., 0], y[..., 0])
        return np.where((x == 1.0) & (y == 1.0), np.nan, x * y)

    game = GameDefinition(unit, unit, utility)
    pts = [point(0.0), point(0.5), point(1.0)]
    return game, FinitePointOracle(game, 1, pts), FinitePointOracle(game, 2, pts)


@pytest.mark.parametrize("solver", ["fictitious_play", "bounds_from_profile", "respond"])
def test_nan_payoff_at_an_answer_is_a_model_error(solver):
    # Against y = 1 the exhaustive oracle picks x = 1, whose payoff is NaN;
    # left unchecked, it makes every bound and subgame value of the run NaN.
    game, o1, o2 = nan_corner_setup()
    with pytest.raises(ModelError, match="utility returned nan"):
        if solver == "fictitious_play":
            run_fictitious_play(game, o1, o2, point(1.0), point(1.0), iters=5)
        elif solver == "bounds_from_profile":
            bounds_from_profile(game, dirac(point(1.0)), dirac(point(1.0)), o1, o2)
        else:
            o1.respond(dirac(point(1.0)))


@pytest.mark.parametrize("accuracy", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("player", [1, 2])
def test_oracle_without_a_finite_accuracy_is_rejected(player, accuracy):
    # A two-point grid oracle on g1 that declared accuracy inf (resolution
    # inf, now rejected by GridSearchOracle) once ended "gap" after one
    # iteration at value 0.0; g1's value is -0.48.
    game = make_polynomial_game()
    oracles = [GridSearchOracle(game, p, 2.0, POLYNOMIAL_LIPSCHITZ) for p in (1, 2)]
    oracles[player - 1].accuracy = accuracy
    match = f"player {player} oracle accuracy"
    with pytest.raises(ParameterError, match=match):
        run_double_oracle(game, *oracles, [point(0.0)], [point(0.0)])
    with pytest.raises(ParameterError, match=match):
        bounds_from_profile(game, dirac(point(0.0)), dirac(point(0.0)), *oracles)
    assert all(o.evaluations == 0 for o in oracles)


def test_absorb_returns_the_first_match_in_insertion_order():
    held = PointSet([point(0.5), point(0.2), point(0.2 + 5e-10), point(0.2 + 1.5e-9)])
    assert held.points == [point(0.5), point(0.2), point(0.2 + 1.5e-9)]  # 0.2 + 5e-10 merged
    assert held.index(point(0.2 + 7.5e-10)) == 1  # within 1e-9 of both 1 and 2
    assert held.add(point(0.2 + 7.5e-10)) == 1
    assert held.add(point(0.5)) == 0
    assert held.add(point(0.2 + 1.5e-9)) == 2
    assert len(held) == 3
    assert held.index(point(0.9)) is None
    assert held.add(point(0.9)) == 3
    assert held.points[3] == point(0.9)
    np.testing.assert_array_equal(held.coords, [[0.5], [0.2], [0.2 + 1.5e-9], [0.9]])
    with pytest.raises(DomainError):  # not broadcast against the 1-D coordinates
        held.add(point(0.2, 0.2))
    assert len(held) == 4


def test_lacking_is_what_add_appends_point_by_point():
    # Multiples of 4e-10 lie within MERGE_TOL of their neighbours and their
    # neighbours' neighbours, so chains of near points are common.
    rng = np.random.default_rng(5)
    for _ in range(200):
        held = [point(float(k) * 4e-10) for k in rng.integers(0, 12, size=rng.integers(0, 4))]
        new = [point(float(k) * 4e-10) for k in rng.integers(0, 12, size=rng.integers(0, 6))]
        one_by_one = PointSet()
        for pt in held:
            one_by_one.add(pt)
        batch = PointSet(held)
        assert batch.points == one_by_one.points
        appended = []
        for pt in new:
            if one_by_one.index(pt) is None:
                appended.append(pt)
            one_by_one.add(pt)
        assert batch.lacking(new) == appended
    with pytest.raises(DomainError):
        PointSet([point(0.5)]).lacking([point(0.5), point(0.2, 0.2)])


def test_streaming_callback_sees_every_record():
    game, o1, o2 = polynomial_setup(1e-3)
    seen = []
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                            epsilon=1e-3, on_iteration=seen.append)
    assert seen == res.trace


@pytest.mark.parametrize("player", [1, 2])
def test_bounds_from_profile_rejects_atoms_outside_the_game(player):
    # g1 is played on [-1, 1]; 5.0 once gave bounds (-84.0, 0.0) unchecked.
    game, o1, o2 = polynomial_setup(1e-2)
    inside, outside = dirac(point(0.0)), merge_duplicates([point(0.5), point(5.0)], [0.5, 0.5])
    profile = (outside, inside) if player == 1 else (inside, outside)
    with pytest.raises(DomainError, match=f"player {player}"):
        bounds_from_profile(game, *profile, o1, o2)
    assert o1.evaluations == o2.evaluations == 0


@pytest.mark.parametrize("solver", ["double_oracle", "fictitious_play"])
def test_record_times_add_up_to_the_run(solver, monkeypatch):
    """Each record's clock starts where the previous one stopped, so no work goes untimed."""
    # A fake clock that advances by one on every utility call, the unit of
    # work in both solvers: building and growing the subgame, oracle
    # queries, answer checks, and fictitious play's history adds.
    clock = [0.0]
    base = make_polynomial_game()

    def utility(x, y):
        clock[0] += 1.0
        return base.utility(x, y)

    game = dataclasses.replace(base, utility=utility)
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    o1, o2 = (GridSearchOracle(game, p, 1e-3, POLYNOMIAL_LIPSCHITZ) for p in (1, 2))
    if solver == "double_oracle":
        trace = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-6).trace
    else:
        trace = run_fictitious_play(game, o1, o2, point(0.0), point(0.0), iters=20).trace
    assert len(trace) > 2
    assert sum(rec.time_s for rec in trace) == clock[0]


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


def recording_solves(monkeypatch):
    """Every (subgame, solution) pair the engine solves, in order."""
    seen = []
    inner = engine.solve_zero_sum

    def solve(mg):
        out = inner(mg)
        seen.append((mg, out))
        return out

    monkeypatch.setattr(engine, "solve_zero_sum", solve)
    return seen


def one_dim_run(make_game, lipschitz, start):
    game = make_game()
    o1 = GridSearchOracle(game, 1, 1e-3, lipschitz)
    o2 = GridSearchOracle(game, 2, 1e-3, lipschitz)
    return game, run_double_oracle(game, o1, o2, [point(start)], [point(start)], epsilon=1e-6)


def blotto_run():
    blotto = BlottoGame(3, (1.0, 1.1, 0.9), 0.25)
    game = game_definition(blotto)
    corners = [point(1.0, 0.0, 0.0), point(0.0, 1.0, 0.0), point(0.0, 0.0, 1.0)]
    o1, o2 = BlottoGridOracle(blotto, 1), BlottoGridOracle(blotto, 2)
    return game, run_double_oracle(game, o1, o2, corners, corners, epsilon=1e-6)


RUNS = {
    "g1": lambda: one_dim_run(make_polynomial_game, POLYNOMIAL_LIPSCHITZ, 0.0),
    "g2": lambda: one_dim_run(make_townsend_game, TOWNSEND_LIPSCHITZ, 0.5),
    "blotto": blotto_run,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_subgame_value_is_the_expected_utility_of_each_profile(monkeypatch, name):
    solves = recording_solves(monkeypatch)
    game, res = RUNS[name]()
    assert len(solves) == res.iterations > 2
    for record, (_, (p, q, _)) in zip(res.trace, solves):
        assert abs(record.subgame_value - expected_utility(p, q, game)) <= 1e-12


def test_subgame_model_grows_only_by_new_points(monkeypatch):
    solves = recording_solves(monkeypatch)
    game, o1, o2 = polynomial_setup(1e-3)
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)], epsilon=1e-6)
    subgames = {id(mg) for mg, _ in solves}
    assert len(subgames) == 1  # one subgame, grown in place
    repeats = sum(
        cur.size_x == prev.size_x or cur.size_y == prev.size_y
        for prev, cur in zip(res.trace, res.trace[1:])
    )
    assert repeats > 0  # some oracle answered with a point already held
    mg = solves[-1][0]
    last = res.trace[-1]
    assert (len(mg.rows), len(mg.cols)) == (last.size_x, last.size_y)
    assert mg.payoff.shape == (last.size_x, last.size_y)
    # HiGHS holds v plus one column per row strategy, and sum(p) = 1 plus
    # one row per column strategy.
    assert mg._lp.highs.getNumCol() == last.size_x + 1
    assert mg._lp.highs.getNumRow() == last.size_y + 1
