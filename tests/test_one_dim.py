import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from double_oracle import (
    BlottoGame,
    Box,
    FiniteMixedStrategy,
    GameDefinition,
    GridSearchOracle,
    IntervalUnion,
    ModelError,
    OracleAnswer,
    ParameterError,
    ResourceLimitError,
    Simplex,
    dirac,
    duplicate_first_axis,
    expected_utility,
    make_polynomial_game,
    make_townsend_game,
    merge_duplicates,
    point,
    run_double_oracle,
    run_fictitious_play,
)
import double_oracle.one_dim as one_dim
from double_oracle.blotto import game_definition
from double_oracle.one_dim import (
    CELL_POINTS,
    EXTRA_RESPONSES,
    POLYNOMIAL_LIPSCHITZ,
    TOWNSEND_LIPSCHITZ,
    _row_sums,
    polynomial_utility,
)

Q_STAR = FiniteMixedStrategy((point(1.0), point(-1.0)), (0.78, 0.22))


def payoff(game, x, y):
    """u(x, y) at one pair of 1-D points."""
    return expected_utility(dirac(point(x)), dirac(point(y)), game)


# ------------------------------------------------------------ game payoffs

def test_polynomial_payoffs():
    game = make_polynomial_game()
    assert payoff(game, 0.2, 1.0) == pytest.approx(-0.48, abs=1e-15)
    assert payoff(game, 0.0, 0.0) == 0.0
    assert payoff(game, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert game.space1 == Box((-1.0,), (1.0,))
    assert game.space2 == Box((-1.0,), (1.0,))


def test_townsend_payoffs():
    game = make_townsend_game()
    assert payoff(game, 0.0, 0.0) == pytest.approx(-1.0)
    assert payoff(game, 0.0, 1.0) == pytest.approx(
        -0.9900332889206209, abs=1e-12
    )
    # with x = 0.1 the cosine factor pins at -1 and only the sine term moves
    for y in (-2.0, 0.0, 1.5):
        assert payoff(game, 0.1, y) == pytest.approx(
            -1.0 - 0.1 * math.sin(0.3 + y), abs=1e-12
        )
    assert game.space1 == Box((-2.25,), (2.5,))
    assert game.space2 == Box((-2.5,), (1.75,))


# ------------------------------------------------------------ grid search

def test_best_response_to_equilibrium_mixture():
    game = make_polynomial_game()
    ans = GridSearchOracle(game, 1).respond(Q_STAR)
    assert ans.point.coords[0] == pytest.approx(0.2, abs=1e-9)
    assert ans.value == pytest.approx(-0.48, abs=1e-9)


def test_minimizer_pushes_to_an_endpoint():
    # against x = 0.2 the payoff is -0.08 - 0.4 y^2, minimized at y = +-1
    game = make_polynomial_game()
    ans = GridSearchOracle(game, 2).respond(dirac(point(0.2)))
    assert abs(ans.point.coords[0]) == 1.0
    assert ans.value == pytest.approx(-0.48, abs=1e-9)


def test_constant_game_returns_leftmost_point():
    unit = Box((0.0,), (1.0,))
    flat = GameDefinition(unit, unit, lambda x, y: np.broadcast_arrays(
        x[..., 0], y[..., 0])[0] * 0.0 + 3.25)
    for player in (1, 2):
        ans = GridSearchOracle(flat, player, resolution=0.1).respond(dirac(point(0.5)))
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
    coarse = GridSearchOracle(game, 1, resolution=0.5).respond(Q_STAR)
    fine = GridSearchOracle(game, 1, resolution=0.25).respond(Q_STAR)
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
    ans = GridSearchOracle(game, 1, res, POLYNOMIAL_LIPSCHITZ).respond(mix)

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
        return ans.point.coords, ans.value.hex(), ans.extra

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
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ParameterError):
            GridSearchOracle(game, 1, resolution=bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            GridSearchOracle(game, 1, lipschitz=bad)
    # counted before anything is allocated: numpy cannot build this grid
    with pytest.raises(ResourceLimitError, match="limit"):
        GridSearchOracle(game, 1, resolution=1e-300)
    blotto = game_definition(BlottoGame(3, (1.0, 1.0, 1.0), 0.25))
    for player in (1, 2):
        with pytest.raises(ParameterError, match="Simplex"):
            GridSearchOracle(blotto, player)


@pytest.mark.parametrize("bad", [(-1.0, 4.0), (4.0, math.nan), (math.inf, 4.0), (4.0,)])
def test_curvature_validation(bad):
    unit = Box((-1.0,), (1.0,))
    with pytest.raises(ParameterError):
        GameDefinition(unit, unit, polynomial_utility, curvature=bad)


# ------------------------------------------------------------ pruned search

def _full_column(game, player, resolution, atom):
    space = game.space1 if player == 1 else game.space2
    grid = np.sort(space.grid_points(resolution))
    if player == 1:
        return grid, game.utility(grid[:, None], atom.array())
    return grid, game.utility(atom.array(), grid[:, None])


def _scan_values(game, player, resolution, mix):
    """The grid and the query's payoff sums on it: one column per atom, summed in atom order."""
    values = 0.0
    for atom, weight in zip(mix.atoms, mix.weights):
        grid, column = _full_column(game, player, resolution, atom)
        values = values + weight * column
    return grid, values


def _full_scan(game, player, resolution, mix):
    """The grid argmax as a plain full scan."""
    grid, values = _scan_values(game, player, resolution, mix)
    idx = int(np.argmax(values)) if player == 1 else int(np.argmin(values))
    return OracleAnswer(point(float(grid[idx])), float(values[idx]))


def _bits(answer):
    return answer.point.coords, answer.value.hex()


def _reference_extras(game, player, resolution, mix, answer):
    """The extras as a loop: peaks of the cell endpoint sums along each interval, best first."""
    grid, values = _scan_values(game, player, resolution, mix)
    space = game.space1 if player == 1 else game.space2
    pieces = space.pieces if isinstance(space, IntervalUnion) else ((space.lower[0], space.upper[0]),)
    sign = 1.0 if player == 1 else -1.0
    peaks = []
    for a, b in pieces:
        idx = np.flatnonzero((grid >= a) & (grid <= b))
        runs = []  # (first endpoint, sum) of each run of equal sums
        for i in list(idx[:-1][::CELL_POINTS]) + [idx[-1]]:
            v = sign * float(values[i])
            if not runs or runs[-1][1] != v:
                runs.append((int(i), v))
        for k, (i, v) in enumerate(runs):
            left = k == 0 or runs[k - 1][1] < v
            right = k == len(runs) - 1 or runs[k + 1][1] < v
            if left and right and math.isfinite(v) and grid[i] != answer.point.coords[0]:
                peaks.append((-v, i))
    return tuple(point(float(grid[i])) for _, i in sorted(peaks)[:EXTRA_RESPONSES])


def _constant_game():
    unit = Box((0.0,), (1.0,))
    return GameDefinition(unit, unit, lambda x, y: np.broadcast_arrays(
        x[..., 0], y[..., 0])[0] * 0.0 + 3.25, name="constant", curvature=(0.0, 0.0))


def _tent_game():
    # u = -|x - y| has slope 1 and a kink at x = y, where a cell's
    # Lipschitz bound is tight; it declares no curvature.
    unit = Box((0.0,), (1.0,))
    return GameDefinition(unit, unit, lambda x, y: -np.abs(x[..., 0] - y[..., 0]), name="tent")


GAMES = {
    "g1": (make_polynomial_game, POLYNOMIAL_LIPSCHITZ),
    "g2": (make_townsend_game, TOWNSEND_LIPSCHITZ),
    # each unit tile maps onto [-1, 1], which doubles the slope
    "g1-tiled": (lambda: duplicate_first_axis(make_polynomial_game()), 2 * POLYNOMIAL_LIPSCHITZ),
    "constant": (_constant_game, 0.0),
    "tent": (_tent_game, 1.0),
}


def _oracle(name, player, with_lipschitz, with_curvature, resolution):
    make, lipschitz = GAMES[name]
    game = make()
    if not with_curvature:
        game = dataclasses.replace(game, curvature=None)
    return GridSearchOracle(game, player, resolution, lipschitz if with_lipschitz else None)


def _atoms(space):
    pieces = space.pieces if isinstance(space, IntervalUnion) else ((space.lower[0], space.upper[0]),)
    return st.one_of(*(st.floats(a, b) for a, b in pieces)).map(point)


@st.composite
def _mixtures(draw, space, max_atoms=12):
    k = draw(st.integers(1, max_atoms))
    atoms = draw(st.lists(_atoms(space), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    return merge_duplicates(atoms, weights)


@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("name", list(GAMES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_respond_equals_full_grid_scan(name, player, data):
    """Pruned answers are the full scan's, bit for bit, before and after running() fills columns.

    Their extras are the peaks a loop over the scan's endpoint sums finds.
    """
    oracle = _oracle(name, player, data.draw(st.booleans()), data.draw(st.booleans()), 1e-3)
    game = oracle.game
    space, opponent_space = (game.space1, game.space2) if player == 1 else (game.space2, game.space1)
    queries = data.draw(st.lists(_mixtures(opponent_space), min_size=1, max_size=3))
    expected = [_full_scan(game, player, 1e-3, q) for q in queries]
    extras = [_reference_extras(game, player, 1e-3, q, a) for q, a in zip(queries, expected)]
    answers = [oracle.respond(q) for q in queries]
    assert [_bits(a) for a in answers] == [_bits(a) for a in expected]
    assert [a.extra for a in answers] == extras
    for answer in answers:
        assert len(set(answer.extra)) == len(answer.extra) <= EXTRA_RESPONSES
        assert answer.point not in answer.extra
        assert all(space.contains(x) and x.coords[0] in oracle._grid for x in answer.extra)
    responder = oracle.running()
    for atom in queries[0].atoms:
        responder.add(atom)
        responder.respond()
    again = [oracle.respond(q) for q in reversed(queries)][::-1]
    assert [(_bits(a), a.extra) for a in again] == [(_bits(a), a.extra) for a in answers]


def _one_point_game(player):
    """g1's utility with the responder's interval shrunk to the one point 0.5."""
    one, unit = Box((0.5,), (0.5,)), Box((-1.0,), (1.0,))
    spaces = (one, unit) if player == 1 else (unit, one)
    return GameDefinition(*spaces, polynomial_utility, name="one-point", curvature=(4.0, 4.0))


@pytest.mark.parametrize("player", [1, 2])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_respond_sums_atom_after_atom(player, data):
    """respond()'s point and value are a ``+=`` loop's over the query's atoms, bit for bit."""
    name = data.draw(st.sampled_from([*GAMES, "one-point"]))
    # 2 / 0.0154 rounds up to 130 steps on g1: its last cell has one inner point.
    resolution = data.draw(st.sampled_from([1e-3, 0.0154]))
    with_lipschitz, with_curvature = data.draw(st.booleans()), data.draw(st.booleans())
    if name == "one-point":
        game = _one_point_game(player)
        lipschitz = POLYNOMIAL_LIPSCHITZ if with_lipschitz else None
        oracle = GridSearchOracle(game, player, resolution, lipschitz)
    else:
        oracle = _oracle(name, player, with_lipschitz, with_curvature, resolution)
        game = oracle.game
    opponent_space = game.space2 if player == 1 else game.space1
    for query in data.draw(st.lists(_mixtures(opponent_space, 40), min_size=1, max_size=3)):
        total = 0.0
        for atom, weight in zip(query.atoms, query.weights):
            grid, column = _full_column(game, player, resolution, atom)
            total += weight * column
        i = int(np.argmax(total)) if player == 1 else int(np.argmin(total))
        answer = oracle.respond(query)
        assert answer.point == point(float(grid[i]))
        assert answer.value.hex() == float(total[i]).hex()


def _held(responder):
    """The grid indices at which ``responder`` holds its running sum, and the sums there.

    On an active cell the sum is a row of ``CELL_POINTS - 1`` values; those
    past the end of a short cell must be zero.
    """
    oracle, cells = responder._oracle, responder._cells
    starts = oracle._inner_start[cells][:, None] + np.arange(CELL_POINTS - 1)
    inner = starts < (oracle._inner_start + oracle._inner_len)[cells][:, None]
    rows = responder._sums[cells]
    assert rows[~inner].tobytes() == np.zeros((~inner).sum()).tobytes()
    idx = np.concatenate((oracle._ends, starts[inner]))
    return idx, np.concatenate((responder._ends, rows[inner]))


@pytest.mark.parametrize("player", [1, 2])
@pytest.mark.parametrize("name", list(GAMES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_running_responder_matches_a_full_column_reference(name, player, data):
    """Held sums and answers equal a full-grid running sum's, bit for bit, round after round."""
    # 2 / 0.0154 rounds up to 130 steps on g1: its last cell has one inner point.
    resolution = data.draw(st.sampled_from([1e-3, 0.0154]))
    oracle = _oracle(name, player, data.draw(st.booleans()), data.draw(st.booleans()), resolution)
    game = oracle.game
    opponent_space = game.space2 if player == 1 else game.space1
    pool = data.draw(st.lists(_atoms(opponent_space), min_size=1, max_size=5))
    # (atom, ask) steps; drawing from a small pool repeats atoms.
    steps = data.draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=1, max_size=40
    ))
    responder = oracle.running()
    grid, total = None, 0.0
    for count, (k, ask) in enumerate(steps, start=1):
        responder.add(pool[k])
        grid, column = _full_column(game, player, resolution, pool[k])
        total = total + column
        if ask or count == len(steps):
            answer = responder.respond()
            i = int(np.argmax(total)) if player == 1 else int(np.argmin(total))
            assert answer == OracleAnswer(point(float(grid[i])), float(total[i]) / count)
            assert answer.value.hex() == (float(total[i]) / count).hex()
            idx, held = _held(responder)
            assert held.tobytes() == total[idx].tobytes()
    assert responder.count == len(steps)


def test_row_sums_add_rows_in_order():
    # Magnitudes spread over 16 decades make any other summation order round
    # differently; the sum of a one-column table must not be pairwise.
    rng = np.random.default_rng(5)
    for columns in (1, 2, 63):
        table = rng.standard_normal((300, columns)) * 10.0 ** rng.integers(-8, 8, (300, columns))
        total = np.zeros(columns)
        for row in table:
            total += row
        assert _row_sums(table).tobytes() == total.tobytes()
        # A sum from zeros turns -0.0 into 0.0.
        assert _row_sums(np.full((3, columns), -0.0)).tobytes() == np.zeros(columns).tobytes()


def test_one_point_grid():
    # A degenerate interval has one grid point and no cells.
    game = GameDefinition(Box((0.5,), (0.5,)), Box((0.0,), (1.0,)), polynomial_utility, curvature=(4.0, 4.0))
    oracle = GridSearchOracle(game, 1, 1e-3, POLYNOMIAL_LIPSCHITZ)
    assert oracle._grid.tolist() == [0.5]
    y = point(0.25)
    value = float(polynomial_utility(np.array([0.5]), y.array()))
    assert oracle.respond(dirac(y)) == OracleAnswer(point(0.5), value)
    assert oracle.evaluations == 1
    responder = oracle.running()
    responder.add(y)
    assert responder.respond() == OracleAnswer(point(0.5), value)
    # Against x = 0.5, u = -0.5 + 1.5 y - y^2 is least at y = 0.
    o2 = GridSearchOracle(game, 2, 1e-3, POLYNOMIAL_LIPSCHITZ)
    res = run_double_oracle(game, oracle, o2, [point(0.5)], [y], epsilon=1e-9)
    assert res.terminated_by == "gap"
    assert res.value == pytest.approx(-0.5, abs=1e-12)


def test_lipschitz_bound_is_exact_at_a_kink():
    # The tent's peak swept across one 64-step cell: a cell bound any
    # smaller than (s_a + s_b)/2 + L w/2 skips the peak for some positions.
    oracle = _oracle("tent", 1, True, False, 1e-3)
    for y in np.linspace(0.1275, 0.1925, 521):
        mix = dirac(point(float(y)))
        assert _bits(oracle.respond(mix)) == _bits(_full_scan(oracle.game, 1, 1e-3, mix))


def test_cells_do_not_span_the_gap_of_an_interval_union():
    # Linear on each piece (curvature 0): u = x on [0, 1], best at its inner
    # end x = 1, and u rises to 0.98 at x = 3 on [2, 3].  A cell from
    # x = 0.96 to x = 2.023 over the gap would have both endpoints below
    # 0.98, so its bound would skip the optimum.
    game = GameDefinition(
        IntervalUnion(((0.0, 1.0), (2.0, 3.0))),
        Box((0.0,), (1.0,)),
        lambda x, y: np.where(x[..., 0] <= 1.5, x[..., 0], 0.5 + 0.48 * (x[..., 0] - 2.0)) + 0.0 * y[..., 0],
        curvature=(0.0, 0.0),
    )
    oracle = GridSearchOracle(game, 1, 1e-3)
    answer = oracle.respond(dirac(point(0.5)))
    assert (answer.point, answer.value) == (point(1.0), 1.0)
    # each piece has its own peak: the answer's is skipped
    assert answer.extra == (point(3.0),)


def test_a_plateau_of_endpoint_sums_is_one_extra():
    # Flat at 0.7 from x = 0.7 to the end of [0, 1], and falling from 0.7 at
    # x = 2 on [2, 3] before it rises to the best value, 1 at x = 3.  The
    # flat run is one peak, at its first endpoint; it does not run on into
    # the other interval, whose first endpoint is a peak of its own.
    def utility(x, y):
        x = x[..., 0]
        second = np.where(x <= 2.5, 0.7 - (x - 2.0), 0.2 + 1.6 * (x - 2.5))
        return np.where(x <= 1.5, np.minimum(x, 0.7), second) + 0.0 * y[..., 0]

    game = GameDefinition(IntervalUnion(((0.0, 1.0), (2.0, 3.0))), Box((0.0,), (1.0,)), utility)
    answer = GridSearchOracle(game, 1, 1e-3).respond(dirac(point(0.5)))
    assert (answer.point, answer.value) == (point(3.0), 1.0)
    assert [x.coords[0] for x in answer.extra] == pytest.approx([11 * CELL_POINTS * 1e-3, 2.0])


def test_oracles_over_one_space_share_a_read_only_grid():
    # g1's players have the same interval; a resolution no other test uses
    game = make_polynomial_game()
    a, b = GridSearchOracle(game, 1, 0.0037), GridSearchOracle(game, 2, 0.0037)
    assert a._grid is b._grid
    assert not a._grid.flags.writeable
    assert GridSearchOracle(game, 1, 0.0038)._grid is not a._grid
    # 0.0 == -0.0, but a grid that ends at -0.0 is another grid
    signed = [dataclasses.replace(game, space1=Box((-1.0,), (z,))) for z in (0.0, -0.0)]
    lasts = [GridSearchOracle(g, 1, 0.0037)._grid[-1] for g in signed]
    assert [math.copysign(1.0, z) for z in lasts] == [1.0, -1.0]
    key = (repr(game.space1), 0.0037)
    assert one_dim._GRIDS[key] is a._grid
    del a
    assert key in one_dim._GRIDS
    del b
    assert key not in one_dim._GRIDS


def _nan_game(at):
    unit = Box((0.0,), (1.0,))
    return GameDefinition(
        unit, unit, lambda x, y: np.where(x[..., 0] == at, np.nan, x[..., 0] * y[..., 0]), name="nan"
    )


@pytest.mark.parametrize("at, lipschitz", [(0.5, None), (0.0, None), (0.0, 1.0)])
def test_nan_payoff_at_a_searched_point_raises(at, lipschitz):
    # x = 0.5 is inside a cell, x = 0 a cell endpoint; with no bound every
    # cell is searched, with one the endpoints always are.
    oracle = GridSearchOracle(_nan_game(at), 1, 1e-3, lipschitz)
    assert at in oracle._grid
    with pytest.raises(ModelError):
        oracle.respond(dirac(point(0.5)))
    responder = oracle.running()
    responder.add(point(0.5))
    with pytest.raises(ModelError):
        responder.respond()


def test_tiling_scales_player_one_curvature():
    assert duplicate_first_axis(make_polynomial_game()).curvature == (16.0, 4.0)
    tiled = duplicate_first_axis(make_townsend_game())
    assert tiled.curvature == pytest.approx((41.0 * 4.75**2, 14.1))
    assert duplicate_first_axis(dataclasses.replace(make_polynomial_game(), curvature=None)).curvature is None


def _worst_second_differences(game, h):
    """max |u(x+h) - 2u(x) + u(x-h)| / h^2 along each player's axis, on a mesh of step ~h."""
    def mesh(space):
        lo, hi = space.lower[0], space.upper[0]
        n = int(round((hi - lo) / h)) + 1
        return np.linspace(lo, hi, n), (hi - lo) / (n - 1)

    x, hx = mesh(game.space1)
    y, hy = mesh(game.space2)
    worst_x = worst_y = 0.0
    for start in range(0, y.size - 2, 254):  # blocks of 256 rows overlapping by 2
        u = game.utility(x[:, None, None], y[None, start:start + 256, None])
        worst_x = max(worst_x, float(np.abs(u[2:] - 2.0 * u[1:-1] + u[:-2]).max()))
        worst_y = max(worst_y, float(np.abs(u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]).max()))
    return worst_x / hx**2, worst_y / hy**2


@pytest.mark.parametrize("make", [make_polynomial_game, make_townsend_game], ids=["g1", "g2"])
def test_declared_curvature_bounds_second_differences(make):
    game = make()
    h = 1e-3
    # Each payoff (|u| < 10) is off by under 1e-14 after rounding, and a
    # second difference scales that by 4 / h^2.  g1's u_xx = -4 meets its
    # bound exactly, so this rounding shows.
    rounding = 1e-13 / h**2
    worst = _worst_second_differences(game, h)
    assert worst[0] <= game.curvature[0] + rounding
    assert worst[1] <= game.curvature[1] + rounding


class _Recording:
    """Oracle wrapper that records every opponent atom it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.accuracy = inner.accuracy
        self.atoms = set()

    def respond(self, opponent):
        self.atoms.update(opponent.atoms)
        return self.inner.respond(opponent)


def test_double_oracle_on_g2_evaluates_a_fraction_of_full_columns():
    game = make_townsend_game()
    oracles = [_Recording(GridSearchOracle(game, p, 1e-4, TOWNSEND_LIPSCHITZ)) for p in (1, 2)]
    res = run_double_oracle(game, *oracles, [point(0.0)], [point(0.0)], epsilon=1e-6)
    assert res.terminated_by == "gap"
    for rec in oracles:
        space = game.space1 if rec.inner.player == 1 else game.space2
        full = len(rec.atoms) * space.grid_points(1e-4).size
        assert rec.inner.evaluations < full / 4


def test_fictitious_play_on_g2_evaluates_a_fraction_of_full_columns():
    game = make_townsend_game()
    o1, o2 = (GridSearchOracle(game, p, 1e-4, TOWNSEND_LIPSCHITZ) for p in (1, 2))
    res = run_fictitious_play(game, o1, o2, point(0.0), point(0.0), iters=80)
    # Each responder was fed exactly the atoms of the final empirical mixtures.
    for oracle, opponent in ((o1, res.empirical2), (o2, res.empirical1)):
        space = game.space1 if oracle.player == 1 else game.space2
        full = opponent.support_size * space.grid_points(1e-4).size
        assert oracle.evaluations < full / 4


# ------------------------------------------------------------ tiled games

def test_tiled_game_repeats_payoffs():
    base = make_polynomial_game()
    tiled = duplicate_first_axis(base)
    assert isinstance(tiled.space1, IntervalUnion)
    assert tiled.space2 == base.space2
    for s, y in [(0.6, 0.3), (0.0, -1.0), (1.0, 0.5)]:
        mapped = -1.0 + 2.0 * s
        want = payoff(base, mapped, y)
        assert payoff(tiled, s, y) == pytest.approx(want, abs=1e-12)
        assert payoff(tiled, s + 2.0, y) == pytest.approx(
            want, abs=1e-12
        )


def test_tiling_requires_one_dimensional_box():
    blotto_like = GameDefinition(Simplex(3), Simplex(3), lambda x, y: x[..., 0])
    with pytest.raises(ParameterError):
        duplicate_first_axis(blotto_like)
