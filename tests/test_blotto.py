import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.sparse import csc_array

from double_oracle import (
    BlottoGame,
    BlottoGridOracle,
    BlottoMilpOracle,
    DomainError,
    FiniteMixedStrategy,
    FinitePointOracle,
    MilpSolution,
    OracleContractError,
    ParameterError,
    ResourceLimitError,
    allocation,
    blotto_utility,
    build_best_response_milp,
    dirac,
    merge_duplicates,
    milp_best_response,
    point,
    run_double_oracle,
    simplex_grid,
)
from double_oracle import blotto
from double_oracle.blotto import MILP_ACCURACY, game_definition

GAME_8 = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.125)
GAME_16 = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.0625)


def true_value(x, opponent, game):
    xs = np.asarray(x.coords)
    return float(
        sum(w * blotto_utility(xs, a.array(), game)
            for a, w in zip(opponent.atoms, opponent.weights))
    )


def random_grid_mixture(rng, game, support):
    pts = simplex_grid(game.n, game.c)
    chosen = rng.choice(len(pts), size=support, replace=False)
    return merge_duplicates([pts[i] for i in chosen], rng.dirichlet(np.ones(support)))


# ----------------------------------------------------------- contest score

def test_contest_score_shape():
    def score(z, c):
        # x = (z, 0) against y = (0, 0): only the first field is contested.
        x = np.stack(np.broadcast_arrays(z, 0.0), axis=-1)
        return blotto_utility(x, np.zeros(2), BlottoGame(2, (1.0, 1.0), c))

    assert score(0.05, 0.1) == pytest.approx(0.5)
    assert score(0.0, 0.1) == 0.0
    assert score(-0.2, 0.1) == -1.0
    assert score(0.1, 0.1) == 1.0  # saturates exactly at the margin
    np.testing.assert_allclose(score(np.array([-1.0, 0.025, 1.0]), 0.05),
                               [-1.0, 0.5, 1.0])
    with pytest.raises(ParameterError):
        score(0.5, 0.0)


def test_utility_examples():
    assert blotto_utility(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), GAME_16) == 0.0
    # win one field outright, lose one, tie one
    assert blotto_utility(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), GAME_16) == 0.0
    weighted = BlottoGame(3, (1.0, 2.0, 3.0), 0.0625)
    assert blotto_utility(
        np.array([1.0, 0, 0]), np.array([0.0, 0, 1]), weighted
    ) == pytest.approx(-2.0)


def test_utility_is_antisymmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        assert blotto_utility(x, y, GAME_8) == pytest.approx(
            -blotto_utility(y, x, GAME_8), abs=1e-12
        )


def test_game_validation():
    with pytest.raises(ParameterError):
        BlottoGame(1, (1.0,), 0.5)
    with pytest.raises(ParameterError):
        BlottoGame(3, (1.0, 1.0), 0.5)
    with pytest.raises(ParameterError):
        BlottoGame(2, (1.0, -1.0), 0.5)
    with pytest.raises(ParameterError):
        BlottoGame(2, (1.0, 1.0), 0.0)
    with pytest.raises(ParameterError):
        BlottoGame(2, (1.0, 1.0), 1.5)


def test_allocation_wrapper():
    assert allocation([0.5, 0.25, 0.25]).coords == (0.5, 0.25, 0.25)
    with pytest.raises(DomainError):
        allocation([0.5, 0.25])
    with pytest.raises(DomainError):
        allocation([0.7, 0.5, -0.2])


# ----------------------------------------------------------- lattice

def test_grid_small_counts():
    assert len(simplex_grid(3, 0.5)) == 6
    assert len(simplex_grid(3, 0.0625)) == 153


def test_grid_order_is_lexicographic():
    got = [p.coords for p in simplex_grid(2, 0.25)]
    assert got == [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0)]


def test_grid_points_live_on_the_lattice():
    for n, c in [(2, 0.5), (3, 0.25), (4, 1.0)]:
        pts = simplex_grid(n, c)
        assert len(pts) == math.comb(round(1 / c) + n - 1, n - 1)
        for p in pts:
            assert math.fsum(p.coords) == pytest.approx(1.0, abs=1e-12)
            assert all(abs(v / c - round(v / c)) < 1e-9 for v in p.coords)


def test_grid_rejects_non_lattice_spacing():
    with pytest.raises(ParameterError):
        simplex_grid(3, 0.3)


def test_grid_enumeration_budget():
    # C(69, 5) is over ten million points
    with pytest.raises(ResourceLimitError):
        simplex_grid(6, 1 / 64)


# ----------------------------------------------------------- MILP builder

def test_model_dimensions():
    # every battlefield breaks at 1/3 -+ 1/16: 3 segments and 2 binaries each
    model = build_best_response_milp(dirac(point(1 / 3, 1 / 3, 1 / 3)), GAME_16)
    assert model.objective.size == 9 + 6
    assert tuple(np.flatnonzero(model.binary)) == tuple(range(9, 15))
    assert model.rows.shape == (1 + 2 * 6, 15)
    assert model.row_lower.size == model.row_upper.size == 1 + 2 * 6
    assert model.spend.shape == (3, 15)

    # fields 0 and 1 break at 1/16 and 15/16, field 2 only at 1/16
    two_atoms = merge_duplicates([point(1.0, 0, 0), point(0.0, 1, 0)], [0.5, 0.5])
    wide = build_best_response_milp(two_atoms, GAME_16)
    assert wide.objective.size == 8 + 5
    assert np.count_nonzero(wide.binary) == 5


def test_model_objective_matches_weighted_values():
    # f_0(x) = 0.25 l(x - 1) + 0.75 l(x), f_1(x) = 2 l(x), and
    # f_2(x) = 3 (0.25 l(x) + 0.75 l(x - 1)), at their breakpoints
    weighted = BlottoGame(3, (1.0, 2.0, 3.0), 0.125)
    mix = merge_duplicates([point(1.0, 0, 0), point(0.0, 0, 1)], [0.25, 0.75])
    model = build_best_response_milp(mix, weighted)
    np.testing.assert_allclose(
        model.objective,
        [0.75, 0.0, 0.25, 2.0, 0.0, 0.75, 0.0, 2.25] + [0.0] * 5,
        atol=1e-15,
    )
    assert model.offset == pytest.approx(-0.25 + 0.0 - 2.25, abs=1e-15)


def reference_segments(opponent, game):
    """Breakpoints, segment rises and f_j(0), one battlefield at a time."""
    atoms, weights = opponent.atoms_array(), opponent.weights_array()
    fields = []
    for j in range(game.n):
        def f(v):
            return game.a[j] * math.fsum(
                w * min(1.0, max(-1.0, (v - y) / game.c)) for y, w in zip(atoms[:, j], weights)
            )

        inside = {v for y in atoms[:, j] for v in (y - game.c, y + game.c) if 0.0 < v < 1.0}
        cuts = sorted(inside | {0.0, 1.0})
        fields.append((cuts, [f(b) - f(a) for a, b in zip(cuts, cuts[1:])], f(0.0)))
    return fields


def reference_rows(fields):
    """Dense budget and fill-order rows with their bounds, field by field."""
    lengths = [np.diff(cuts) for cuts, _, _ in fields]
    segments = sum(len(seg) for seg in lengths)
    pairs = segments - len(fields)
    rows = np.zeros((1 + 2 * pairs, segments + pairs))
    lower = np.r_[1.0, np.zeros(2 * pairs)]
    upper = np.r_[1.0, np.zeros(2 * pairs)]
    rows[0, :segments] = np.concatenate(lengths)
    first, q = 0, 0
    for seg in lengths:
        for s in range(first, first + len(seg) - 1):
            z = segments + q
            rows[1 + 2 * q, [s, z]] = 1.0, -1.0  # lambda_s >= z
            upper[1 + 2 * q] = np.inf
            rows[2 + 2 * q, [s + 1, z]] = 1.0, -1.0  # lambda_{s+1} <= z
            lower[2 + 2 * q] = -np.inf
            q += 1
        first += len(seg)
    return rows, lower, upper


def random_mixtures(rng, n, count):
    """Dirichlet mixtures and lattice ones with double oracle's 1e-16 noise."""
    for trial in range(count):
        k = int(rng.integers(1, 7))
        if trial % 2:
            atoms = rng.dirichlet(np.ones(n), size=k)
        else:
            steps = int(rng.choice([4, 8, 16]))
            cuts = np.sort(rng.integers(0, steps + 1, size=(k, n - 1)), axis=1)
            atoms = np.diff(np.c_[np.zeros(k), cuts, np.full(k, steps)], axis=1) / steps
            atoms = np.clip(atoms + rng.integers(-2, 3, size=atoms.shape) * 1e-16, 0.0, None)
            atoms /= atoms.sum(axis=1, keepdims=True)
        yield merge_duplicates([point(*a) for a in atoms], rng.dirichlet(np.ones(k)))


def dense_rows(model):
    m = model.rows
    return csc_array((m.data, m.indices, m.indptr), shape=m.shape).toarray()


def test_model_segments_match_a_per_battlefield_reference():
    rng = np.random.default_rng(31)
    for c in (1 / 8, 1 / 10, 1 / 16, 0.3, 1.0):
        game = BlottoGame(3, tuple(rng.uniform(0.5, 1.5, 3)), c)
        for mix in random_mixtures(rng, 3, 6):
            model = build_best_response_milp(mix, game)
            fields = reference_segments(mix, game)
            budget = dense_rows(model)[0]
            columns = [np.flatnonzero(row) for row in model.spend]
            assert np.array_equal(np.concatenate(columns), np.flatnonzero(~model.binary))
            for (cuts, rises, _), spend, col in zip(fields, model.spend, columns):
                length = spend[col]
                assert np.all(length > 0.0)
                assert np.array_equal(length, np.diff(cuts))
                assert np.array_equal(budget[col], length)
                np.testing.assert_allclose(np.r_[0.0, np.cumsum(length)], cuts, rtol=0, atol=1e-15)
                np.testing.assert_allclose(model.objective[col], rises, rtol=0, atol=1e-12)
            assert model.offset == pytest.approx(math.fsum(f0 for _, _, f0 in fields), abs=1e-12)


def test_model_rows_match_a_per_battlefield_reference():
    rng = np.random.default_rng(32)
    for c in (1 / 8, 1 / 16, float(rng.uniform(0.05, 1.0))):
        game = BlottoGame(3, (1.0, 1.0, 1.0), c)
        for mix in random_mixtures(rng, 3, 6):
            model = build_best_response_milp(mix, game)
            rows, lower, upper = reference_rows(reference_segments(mix, game))
            assert np.array_equal(dense_rows(model), rows)
            assert np.array_equal(model.row_lower, lower)
            assert np.array_equal(model.row_upper, upper)
            segments = rows.shape[1] - (rows.shape[0] - 1) // 2
            assert np.array_equal(model.binary, np.arange(rows.shape[1]) >= segments)
            assert np.array_equal(model.upper, np.ones(rows.shape[1]))


@pytest.mark.parametrize("c", [1 / 8, 1.0])  # at c = 1 no field breaks inside (0, 1)
def test_model_rows_are_what_milp_makes_of_dense_rows(c):
    # The sparse build gives, array for array, the canonical CSC that
    # scipy.sparse.csc_array makes of the equivalent dense rows: HiGHS's
    # input is what it was when the rows went through scipy.sparse.
    mix = merge_duplicates([point(0.5, 0.25, 0.25), point(0.0, 0.5, 0.5)], [0.5, 0.5])
    game = BlottoGame(3, (1.0, 1.0, 1.0), c)
    got = build_best_response_milp(mix, game).rows
    want = csc_array(reference_rows(reference_segments(mix, game))[0])
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).dtype == getattr(want, part).dtype
        assert np.array_equal(getattr(got, part), getattr(want, part))


# ----------------------------------------------------------- best responses

def test_exact_response_to_center():
    ans = milp_best_response(dirac(point(1 / 3, 1 / 3, 1 / 3)), GAME_8)
    assert ans.value == pytest.approx(1.0, abs=1e-6)
    assert true_value(ans.point, dirac(point(1 / 3, 1 / 3, 1 / 3)), GAME_8) == pytest.approx(
        ans.value, abs=1e-6
    )


def test_exact_response_to_corner():
    # concede the stacked field and win the two empty ones
    ans = milp_best_response(dirac(point(1.0, 0.0, 0.0)), GAME_16)
    assert ans.value == pytest.approx(1.0, abs=1e-6)


def test_response_to_self_is_nonnegative():
    mine = dirac(point(0.5, 0.3, 0.2))
    ans = milp_best_response(mine, GAME_8)
    assert ans.value >= -1e-9


def test_milp_value_equals_true_utility_off_grid():
    rng = np.random.default_rng(21)
    for _ in range(5):
        atoms = [point(*rng.dirichlet(np.ones(3))) for _ in range(3)]
        mix = merge_duplicates(atoms, rng.dirichlet(np.ones(3)))
        ans = milp_best_response(mix, GAME_8)
        assert true_value(ans.point, mix, GAME_8) == pytest.approx(ans.value, abs=1e-7)


def test_milp_value_is_the_utility_of_its_allocation():
    # Under HiGHS's default options the MILP objective on this dirac
    # overstated the allocation's utility by 2e-6, more than MILP_ACCURACY
    # (HiGHS's fallback run still uses them); the answer must report the
    # utility.
    opponent = dirac(point(0.25, 0.0625, 0.6875))
    ans = milp_best_response(opponent, GAME_16)
    assert ans.value == pytest.approx(true_value(ans.point, opponent, GAME_16), abs=1e-12)


def exact_best_value(opponent, game):
    """Player 1's best-response value by breakpoint-vertex enumeration.

    The utility is separable and piecewise linear, with breakpoints at each
    opponent coordinate +-c, so a maximizer sits where all but one
    coordinate is a breakpoint, 0 or 1 and the last one fills the budget.
    """
    atoms = np.asarray([a.coords for a in opponent.atoms])
    weights = np.asarray(opponent.weights)
    levels = [
        np.unique(np.clip(np.r_[atoms[:, j] - game.c, atoms[:, j] + game.c, 0.0, 1.0], 0.0, 1.0))
        for j in range(game.n)
    ]
    best = -math.inf
    for free in range(game.n):
        others = [j for j in range(game.n) if j != free]
        for vals in itertools.product(*(levels[j] for j in others)):
            x = np.empty(game.n)
            x[others] = vals
            x[free] = 1.0 - sum(vals)
            if x[free] >= 0.0:
                best = max(best, float(blotto_utility(x, atoms, game) @ weights))
    return best


def test_milp_matches_exact_best_response_on_mixed_opponents():
    # solve_milp sets HiGHS's absolute gap to MILP_ACCURACY, so this pins
    # the answers to within that of the true optimum.
    rng = np.random.default_rng(5)
    for c in (0.25, 0.125, 0.1):
        for support in (2, 3, 4):
            game = BlottoGame(n=3, a=tuple(rng.uniform(0.5, 1.5, 3)), c=c)
            mix = FiniteMixedStrategy(
                tuple(point(*p) for p in rng.dirichlet(np.ones(3), size=support)),
                tuple(rng.dirichlet(np.ones(support))),
            )
            exact = exact_best_value(mix, game)
            ans = milp_best_response(mix, game)
            assert exact - MILP_ACCURACY <= ans.value <= exact + 1e-12


def assert_oracles_exact(mix, game):
    exact = exact_best_value(mix, game)
    for player, sign in ((1, 1.0), (2, -1.0)):
        value = sign * BlottoMilpOracle(game, player).respond(mix).value
        assert exact - MILP_ACCURACY <= value <= exact + 1e-12, (player, exact, value)


def test_milp_is_exact_on_a_near_lattice_mixture():
    # Double oracle hands the MILP atoms like these: lattice points a few ulps
    # off, so two breakpoints of a field lie 1.7e-16 apart.
    mix = FiniteMixedStrategy(
        (
            point(0.375, 0.5, 0.125),
            point(0.25000000000000017, 0.6249999999999998, 0.125),
            point(0.625, 0.25, 0.125),
            point(0.5, 0.25, 0.25),
            point(0.0, 0.875, 0.125),
            point(0.5, 0.125, 0.375),
        ),
        (0.06, 0.41, 0.06, 0.26, 0.16, 0.05),
    )
    assert_oracles_exact(mix, GAME_8)


@pytest.mark.parametrize("n", [3, 4])
def test_milp_is_exact_near_breakpoints(n):
    rng = np.random.default_rng(40 + n)
    for c in (1 / 8, 1 / 16, 0.1, 0.3, 1.0):
        game = BlottoGame(n, (1.0,) * n, c)
        for mix in random_mixtures(rng, n, 4):
            assert_oracles_exact(mix, game)


def random_queries(seed):
    rng = np.random.default_rng(seed)
    for n in (3, 4):
        for c in (1 / 8, 1 / 16, 0.1, 0.3, 1.0):
            game = BlottoGame(n, tuple(rng.uniform(0.5, 1.5, n)), c)
            yield from ((game, mix) for mix in random_mixtures(rng, n, 15))


@pytest.mark.parametrize("queries", [
    pytest.param(lambda: [(GAME_8, dirac(point(0.5, 0.25, 0.25)))], id="dirac-c8"),
    pytest.param(lambda: [(GAME_16, dirac(point(0.25, 0.0625, 0.6875)))], id="dirac-c16"),
    pytest.param(lambda: random_queries(3), id="random"),
])
def test_milp_best_responses_write_nothing_to_stdout_or_stderr(capfd, queries):
    # HiGHS's MIP postsolve can print from C, past output_flag, so capture
    # the file descriptors rather than sys.stdout.  Under HiGHS's default
    # options the c = 1/8 dirac and seed 3's batch each print a line.
    for game, opponent in queries():
        milp_best_response(opponent, game)
    out, err = capfd.readouterr()
    assert (out, err) == ("", "")


def test_enumeration_prefers_lexicographically_smallest():
    opp = dirac(point(0.375, 0.375, 0.25))
    ans = BlottoGridOracle(GAME_8, 1).respond(opp)
    assert ans.value == pytest.approx(1.0, abs=1e-12)
    assert ans.point.coords == (0.0, 0.5, 0.5)

    tiny = BlottoGame(2, (1.0, 1.0), 0.25)
    ans2 = BlottoGridOracle(tiny, 1).respond(dirac(point(1.0, 0.0)))
    # every grid allocation ties at zero, so the first one wins
    assert ans2.point.coords == (0.0, 1.0)
    assert ans2.value == pytest.approx(0.0, abs=1e-12)


def test_enumeration_respects_grid_override():
    # A lattice coarser than the game's margin: enumerate it as a point list.
    opp = dirac(point(0.375, 0.375, 0.25))
    coarse = FinitePointOracle(game_definition(GAME_8), 1, simplex_grid(3, 0.5)).respond(opp)
    assert all(abs(v * 2 - round(v * 2)) < 1e-9 for v in coarse.point.coords)


def test_milp_dominates_enumeration():
    rng = np.random.default_rng(4)
    for game in (GAME_8, GAME_16):
        for support in (2, 5):
            mix = random_grid_mixture(rng, game, support)
            milp = milp_best_response(mix, game)
            enum = BlottoGridOracle(game, 1).respond(mix)
            assert milp.value >= enum.value - 1e-6


# ----------------------------------------------------------- oracles

def test_milp_oracle_player2_mirrors_player1():
    mix = merge_duplicates([point(0.5, 0.25, 0.25), point(0.25, 0.5, 0.25)], [0.4, 0.6])
    o2 = BlottoMilpOracle(GAME_8, player=2)
    ans2 = o2.respond(mix)
    ans1 = milp_best_response(mix, GAME_8)
    assert ans2.value == pytest.approx(-ans1.value, abs=1e-12)
    # the response really earns that value as the minimizer
    got = sum(
        w * blotto_utility(a.array(), np.asarray(ans2.point.coords), GAME_8)
        for a, w in zip(mix.atoms, mix.weights)
    )
    assert got == pytest.approx(ans2.value, abs=1e-7)


def test_milp_oracle_double_oracle_closes_at_zero_epsilon():
    # The lattice holds an equilibrium of this game, so the first subgame is
    # already solved and exact oracle values close the gap to zero.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.5)
    lattice = simplex_grid(3, 0.25)
    res = run_double_oracle(
        game_definition(game),
        BlottoMilpOracle(game, player=1),
        BlottoMilpOracle(game, player=2),
        lattice,
        lattice,
        epsilon=0.0,
        max_iters=15,
    )
    assert res.terminated_by == "gap"
    assert res.iterations == 1
    assert res.gap <= 1e-9


def test_grid_oracle_rejects_off_grid_start():
    # The first subgame guarantees 0.92, but the best grid response earns
    # only 0.8, so the grid oracle's accuracy of 0.0 does not hold here.
    game = BlottoGame(n=3, a=(1.0, 1.0, 1.0), c=0.25)
    with pytest.raises(OracleContractError, match="player 1"):
        run_double_oracle(
            game_definition(game),
            BlottoGridOracle(game, 1),
            BlottoGridOracle(game, 2),
            [point(0.44, 0.54, 0.02)],
            [point(0.2, 0.3, 0.5)],
        )


def test_grid_oracle_agrees_with_enumeration():
    rng = np.random.default_rng(17)
    mix = random_grid_mixture(rng, GAME_8, 4)
    o1 = BlottoGridOracle(GAME_8, player=1)
    grid = simplex_grid(3, 0.125)
    values = [true_value(g, mix, GAME_8) for g in grid]
    best = int(np.argmax(values))  # the first of equal values, as the oracle breaks ties
    ans = o1.respond(mix)
    assert ans.point == grid[best]
    assert ans.value == pytest.approx(values[best], abs=1e-12)
    assert o1.accuracy == 0.0


def test_grid_oracle_is_exact_for_the_continuous_game_on_lattice_queries():
    # Against atoms on the lattice every breakpoint is a lattice point, so
    # some continuous best response is one: the MILP can do no better.
    rng = np.random.default_rng(23)
    for k in range(80):
        n, c, player = 3 + k % 2, (0.25, 0.125, 0.0625)[k // 2 % 3], 1 + k // 6 % 2
        game = BlottoGame(n, tuple(rng.uniform(0.5, 1.5, n)), c)
        mix = random_grid_mixture(rng, game, int(rng.integers(1, 7)))
        sign = 1.0 if player == 1 else -1.0
        lattice = sign * BlottoGridOracle(game, player).respond(mix).value
        milp = sign * BlottoMilpOracle(game, player).respond(mix).value
        assert milp - 1e-12 <= lattice <= milp + MILP_ACCURACY, (n, c, player, lattice, milp)


def test_grid_oracle_player2_minimizes():
    rng = np.random.default_rng(18)
    mix = random_grid_mixture(rng, GAME_8, 4)
    o2 = BlottoGridOracle(GAME_8, player=2)
    ans = o2.respond(mix)
    grid = simplex_grid(3, 0.125)
    # player 2 minimizes player 1's payoff of the mixture against each column
    col_values = [
        sum(w * blotto_utility(a.array(), g.array(), GAME_8)
            for a, w in zip(mix.atoms, mix.weights))
        for g in grid
    ]
    assert ans.value == pytest.approx(min(col_values), abs=1e-12)


def test_oracle_player_validation():
    with pytest.raises(ParameterError):
        BlottoMilpOracle(GAME_8, player=0)
    with pytest.raises(ParameterError):
        BlottoGridOracle(GAME_8, player=7)


def test_large_support_warns_once(monkeypatch):
    pts = simplex_grid(3, 0.0625)
    mix = merge_duplicates(pts[:68], np.ones(68) / 68)

    def fake_solve(model, **options):  # the corner (1, 0, 0), found at once
        x = np.zeros(model.objective.size)
        x[0] = 1.0
        return MilpSolution(x, nodes=0)

    monkeypatch.setattr(blotto, "solve_milp", fake_solve)
    oracle = BlottoMilpOracle(GAME_16, player=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle.respond(mix)
        oracle.respond(mix)
    assert [w.category for w in caught] == [UserWarning]
    assert "enumeration" in str(caught[0].message)
