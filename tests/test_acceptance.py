"""End-to-end acceptance checks for the whole package.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the same condition, so the -v test report doubles
as the acceptance summary.  Tolerances are pinned literally in each test.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.sparse import csc_array

from double_oracle import (
    BlottoGame,
    BlottoGridOracle,
    FinitePointOracle,
    GridSearchOracle,
    blotto_utility,
    build_best_response_milp,
    dirac,
    duplicate_first_axis,
    embed_matrix_game,
    make_polynomial_game,
    make_townsend_game,
    merge_duplicates,
    milp_best_response,
    point,
    run_double_oracle,
    run_fictitious_play,
    simplex_grid,
)
from double_oracle.one_dim import POLYNOMIAL_LIPSCHITZ, TOWNSEND_LIPSCHITZ


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def polynomial_run(epsilon, resolution):
    game = make_polynomial_game()
    o1 = GridSearchOracle(game, 1, resolution, POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, resolution, POLYNOMIAL_LIPSCHITZ)
    start = time.perf_counter()
    res = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                            epsilon=epsilon)
    return res, time.perf_counter() - start, o1.accuracy


@pytest.fixture(scope="module")
def default_run():
    return polynomial_run(epsilon=1e-3, resolution=1e-4)


@pytest.fixture(scope="module")
def tight_run():
    return polynomial_run(epsilon=1e-5, resolution=1e-5)


def mass_near(mix, target, radius):
    return sum(
        w for a, w in zip(mix.atoms, mix.weights) if abs(a.coords[0] - target) <= radius
    )


def test_criterion_1_polynomial_value(default_run):
    res, elapsed, _ = default_run
    ok = (
        res.terminated_by == "gap"
        and abs(res.value - (-0.48)) <= 1e-3
        and res.iterations <= 50
        and elapsed < 10.0
    )
    report(1, ok, (
        f"value {res.value:.6f} (target -0.48 within 1e-3), "
        f"{res.iterations} iterations (cap 50), {elapsed:.2f}s (cap 10s)"
    ))


def test_criterion_2_equilibrium_support(tight_run):
    res, _, _ = tight_run
    p_mass = mass_near(res.p_star, 0.2, 0.01)
    q_top = mass_near(res.q_star, 1.0, 0.01)
    q_bottom = mass_near(res.q_star, -1.0, 0.01)
    ok = (
        p_mass >= 0.99
        and abs(q_top - 0.78) <= 0.05
        and abs(q_bottom - 0.22) <= 0.05
    )
    report(2, ok, (
        f"p mass within 0.01 of 0.2 is {p_mass:.4f} (need >= 0.99); "
        f"q weights near +-1 are ({q_top:.3f}, {q_bottom:.3f}) "
        f"(targets 0.78/0.22 within 0.05)"
    ))


def test_criterion_3_bounds_bracket_value(default_run, tight_run):
    checked = 0
    worst = 0.0
    ok = True
    for res, _, accuracy in (default_run, tight_run):
        slack = 1e-6 + accuracy
        for rec in res.trace:
            checked += 1
            worst = max(worst, rec.lower - (-0.48), (-0.48) - rec.upper)
            if not (rec.lower - slack <= -0.48 <= rec.upper + slack):
                ok = False
            if rec.gap < -2 * accuracy:
                ok = False
    report(3, ok, (
        f"lower <= -0.48 <= upper held on all {checked} iterations "
        f"(slack 1e-6 + oracle accuracy; worst excess {worst:.2e})"
    ))


def test_criterion_4_blotto_full_grid_closes():
    game_def = BlottoGame(3, (1.0, 1.0, 1.0), 0.0625)
    from double_oracle.blotto import game_definition

    game = game_definition(game_def)
    grid = simplex_grid(3, 0.0625)
    o1 = BlottoGridOracle(game_def, 1)
    o2 = BlottoGridOracle(game_def, 2)
    start = time.perf_counter()
    res = run_double_oracle(game, o1, o2, grid, grid, epsilon=1e-6)
    elapsed = time.perf_counter() - start
    ok = (
        res.terminated_by == "gap"
        and res.iterations == 1
        and res.gap <= 1e-6
        and elapsed < 60.0
    )
    report(4, ok, (
        f"{len(grid)}-point grid closed in {res.iterations} iteration "
        f"(gap {res.gap:.2e} <= 1e-6) in {elapsed:.2f}s (cap 60s)"
    ))


def test_criterion_5_milp_dominates_enumeration():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    failures = []
    for trial in range(20):
        c = 0.125 if trial % 2 == 0 else 0.0625
        game = BlottoGame(3, (1.0, 1.0, 1.0), c)
        pts = simplex_grid(3, c)
        support = int(rng.integers(1, 11))
        chosen = rng.choice(len(pts), size=support, replace=False)
        mix = merge_duplicates(
            [pts[i] for i in chosen], rng.dirichlet(np.ones(support))
        )
        milp = milp_best_response(mix, game)
        enum = BlottoGridOracle(game, 1).respond(mix)
        if milp.value < enum.value - 1e-6:
            failures.append((trial, milp.value, enum.value))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(5, ok, (
        f"20 random mixtures (support <= 10, c in {{1/8, 1/16}}): "
        f"{len(failures)} violations of milp >= enum - 1e-6, "
        f"{elapsed:.1f}s total (cap 120s)"
    ))


def fill_points(model, rows, budget, x_j, fills):
    """The fill fractions of one battlefield at x_j, per binary assignment.

    ``fills`` are the battlefield's fraction columns and ``budget`` their
    segment lengths.  Each fill-order row bounds one fraction by one binary;
    fixing the binaries leaves a box that ``budget @ fill == x_j`` cuts.
    Returns the point of each assignment that the rows admit, and fails if
    an admitted assignment leaves more than one point.
    """
    body = [r for r in range(1, rows.shape[0]) if rows[r, fills].any()]
    binaries = np.flatnonzero(model.binary & rows[body].any(axis=0))
    points = []
    for z_values in itertools.product((0.0, 1.0), repeat=binaries.size):
        lo, hi = np.zeros(fills.size), model.upper[fills].copy()
        for r in body:
            (s,) = np.flatnonzero(rows[r, fills])
            assert rows[r, fills[s]] == 1.0
            shift = rows[r, binaries] @ z_values
            lo[s] = max(lo[s], model.row_lower[r] - shift)
            hi[s] = min(hi[s], model.row_upper[r] - shift)
        if np.any(lo > hi) or not budget @ lo - 1e-12 <= x_j <= budget @ hi + 1e-12:
            continue
        free = np.flatnonzero(hi - lo > 1e-12)
        if abs(x_j - budget @ lo) <= 1e-12:
            fill = lo
        elif abs(x_j - budget @ hi) <= 1e-12:
            fill = hi
        else:
            assert free.size == 1, f"fill not pinned: {free.size} free fractions"
            fill = lo.copy()
            fill[free] += (x_j - budget @ lo) / budget[free]
        points.append(fill)
    assert points, "no feasible binary assignment"
    return points


def contest_score(z, c):
    """l(z): -1 below -c, z/c between, 1 above c."""
    return min(1.0, max(-1.0, z / c))


def test_criterion_6_linearization_is_exact():
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    for _ in range(200):
        c = float(rng.uniform(0.05, 1.0))
        game = BlottoGame(3, (1.0, 1.0, 1.0), c)
        y = rng.dirichlet(np.ones(3))
        x = rng.dirichlet(np.ones(3))
        model = build_best_response_milp(dirac(point(*y)), game)
        m = model.rows
        rows = csc_array((m.data, m.indices, m.indptr), shape=m.shape).toarray()
        at_zero = [contest_score(-y[j], c) for j in range(3)]
        worst = max(worst, abs(model.offset - sum(at_zero)))
        for j in range(3):
            fills = np.flatnonzero(model.spend[j])
            for fill in fill_points(model, rows, rows[0, fills], x[j], fills):
                piece = model.objective[fills] @ fill + at_zero[j]
                worst = max(worst, abs(piece - contest_score(x[j] - y[j], c)))
            checked += 1
    ok = worst <= 1e-9
    report(6, ok, (
        f"{checked} battlefields from 200 random models: max deviation "
        f"{worst:.2e} from the exact contest score (tol 1e-9)"
    ))


def test_criterion_7_finite_games_certified():
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    worst_cert = 0.0
    ok = True
    for _ in range(25):
        A = rng.normal(size=(5, 5))
        game, rows, cols = embed_matrix_game(A)
        o1 = FinitePointOracle(game, 1, rows)
        o2 = FinitePointOracle(game, 2, cols)
        res = run_double_oracle(game, o1, o2, [rows[0]], [cols[0]], epsilon=0.0)
        if res.terminated_by != "gap":
            ok = False
        worst_gap = max(worst_gap, res.gap)
        pv = np.zeros(5)
        for a, w in zip(res.p_star.atoms, res.p_star.weights):
            pv[int(a.coords[0])] = w
        qv = np.zeros(5)
        for a, w in zip(res.q_star.atoms, res.q_star.weights):
            qv[int(a.coords[0])] = w
        worst_cert = max(
            worst_cert,
            abs(float((A @ qv).max()) - res.value),
            abs(float((pv @ A).min()) - res.value),
        )
    ok = ok and worst_gap <= 1e-7 and worst_cert <= 1e-7
    report(7, ok, (
        f"25 random 5x5 games, epsilon 0: worst gap {worst_gap:.2e}, "
        f"worst certificate error {worst_cert:.2e} (tol 1e-7)"
    ))


def test_criterion_8_outpaces_fictitious_play():
    results = {}
    for name, game, lip in (
        ("g1", make_polynomial_game(), POLYNOMIAL_LIPSCHITZ),
        ("g2", make_townsend_game(), TOWNSEND_LIPSCHITZ),
    ):
        o1 = GridSearchOracle(game, 1, 1e-4, lip)
        o2 = GridSearchOracle(game, 2, 1e-4, lip)
        do = run_double_oracle(game, o1, o2, [point(0.0)], [point(0.0)],
                               epsilon=0.0, max_iters=20)
        fp = run_fictitious_play(game, o1, o2, point(0.0), point(0.0), iters=200)
        results[name] = (do.gap, fp.gap)
    ok = all(do_gap < fp_gap for do_gap, fp_gap in results.values())
    report(8, ok, (
        "gap after 20 iterations vs fictitious play after 200: "
        + "; ".join(
            f"{name} {do_gap:.2e} < {fp_gap:.2e}" for name, (do_gap, fp_gap) in results.items()
        )
    ))


def test_criterion_9_duplicated_interval():
    game = duplicate_first_axis(make_polynomial_game())
    o1 = GridSearchOracle(game, 1, 1e-4, 2 * POLYNOMIAL_LIPSCHITZ)
    o2 = GridSearchOracle(game, 2, 1e-4, POLYNOMIAL_LIPSCHITZ)
    res = run_double_oracle(game, o1, o2, [point(0.5)], [point(0.0)], epsilon=1e-3)
    ok = res.terminated_by == "gap" and abs(res.value - (-0.48)) <= 1e-3
    report(9, ok, (
        f"tiled player-1 interval: terminated by {res.terminated_by}, "
        f"value {res.value:.6f} (target -0.48 within 1e-3) "
        f"after {res.iterations} iterations"
    ))
