"""The benchmark's workloads: inputs made from a seed, solver calls, checks.

``WORKLOADS[name]`` is a :class:`Workload`.  ``build(seed, tracer)``
makes one round: the games, oracles and initial strategy sets, as a list of
:class:`Op`.  Running an op is one solver call (a whole
``run_double_oracle`` / ``run_fictitious_play`` or a single oracle
``respond``).  ``check(ops, outputs)`` returns the problems found in each
op's output, judged against :mod:`reference` and against properties every
correct answer has, and ``steps`` gives what one output adds to the
``iterations`` metric.  ``tracer`` is None for an untraced round; otherwise
solver entry points and oracles are wrapped in spans.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

import double_oracle as do
import reference as ref
from double_oracle.blotto import game_definition
from double_oracle.one_dim import POLYNOMIAL_LIPSCHITZ, TOWNSEND_LIPSCHITZ

EPSILON = 1e-6
RESOLUTION = 1e-4
FLOAT_TOL = 1e-9

DO_STARTS_PER_GAME = 10
FP_ROUNDS = 80
LATTICE_C = 1.0 / 16
LATTICE_GAMES = 12
MILP_CS = (1.0 / 8, 1.0 / 10, 1.0 / 16)
MILP_SUPPORTS = (1, 2, 3, 4)
MILP_BATCH_SEED = 2009
# HiGHS presolve reports "Solve error" on this query; it stays in every batch.
MILP_HARD_QUERY = ((0.5, 0.25, 0.25), 1.0 / 8)


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    ctx: dict = field(default_factory=dict)


def _wrap(tracer, name, fn):
    return fn if tracer is None else tracer.wrap(name, fn)


def _oracle(tracer, oracle, player, candidates):
    return oracle if tracer is None else tracer.oracle(oracle, player, candidates)


def _mixture_arrays(mix):
    return mix.atoms_array(), mix.weights_array()


# -- one-dimensional games -------------------------------------------------

ONE_DIM_GAMES = (
    ("g1", do.make_polynomial_game, POLYNOMIAL_LIPSCHITZ),
    ("g2", do.make_townsend_game, TOWNSEND_LIPSCHITZ),
)


def _grid_size(interval):
    lo, hi = interval
    return int(math.ceil((hi - lo) / RESOLUTION - 1e-6)) + 1


def _one_dim_oracles(tracer, name, game, lipschitz):
    _, space1, space2 = ref.ONE_DIM[name]
    o1 = do.GridSearchOracle(game, 1, RESOLUTION, lipschitz)
    o2 = do.GridSearchOracle(game, 2, RESOLUTION, lipschitz)
    return (
        _oracle(tracer, o1, 1, _grid_size(space1)),
        _oracle(tracer, o2, 2, _grid_size(space2)),
    )


def _uniform_point(rng, interval):
    lo, hi = interval
    return do.point(lo + (hi - lo) * rng.random())


def build_do_1d(seed, tracer):
    """Double oracle on g1 and g2 from seeded random starts, to epsilon."""
    rng = np.random.default_rng(seed)
    solve = _wrap(tracer, "engine.run_double_oracle", do.run_double_oracle)
    ops = []
    for name, make, lipschitz in ONE_DIM_GAMES:
        game = make()
        _, space1, space2 = ref.ONE_DIM[name]
        for start in range(DO_STARTS_PER_GAME):
            o1, o2 = _one_dim_oracles(tracer, name, game, lipschitz)
            x0, y0 = _uniform_point(rng, space1), _uniform_point(rng, space2)
            call = functools.partial(solve, game, o1, o2, [x0], [y0], epsilon=EPSILON)
            ops.append(Op(f"{name} start {start}", call, {"game": name, "acc1": o1.accuracy, "acc2": o2.accuracy}))
    return ops


def _record_problems(name, rec, acc1, acc2):
    """Oracle bounds must bracket the profile's value, and g1's game value."""
    problems = []
    if not rec.lower - acc2 - FLOAT_TOL <= rec.subgame_value <= rec.upper + acc1 + FLOAT_TOL:
        problems.append(f"iteration {rec.index}: bounds [{rec.lower}, {rec.upper}] miss value {rec.subgame_value}")
    if name == "g1" and not rec.lower - acc2 - FLOAT_TOL <= ref.G1_VALUE <= rec.upper + acc1 + FLOAT_TOL:
        problems.append(f"iteration {rec.index}: bounds [{rec.lower}, {rec.upper}] miss {ref.G1_VALUE}")
    return problems


def _final_bound_problems(name, rec, p, q, acc1, acc2):
    """The last upper/lower bounds against a best response on a 10x finer grid."""
    upper = ref.fine_best_response(name, 1, *_mixture_arrays(q))
    lower = ref.fine_best_response(name, 2, *_mixture_arrays(p))
    problems = []
    if abs(rec.upper - upper) > acc1 + FLOAT_TOL:
        problems.append(f"upper {rec.upper} vs fine-grid {upper}")
    if abs(rec.lower - lower) > acc2 + FLOAT_TOL:
        problems.append(f"lower {rec.lower} vs fine-grid {lower}")
    return problems


def check_do_1d(ops, outputs):
    found = []
    values: dict[str, list[float]] = {}
    for op, res in zip(ops, outputs):
        name, acc1, acc2 = op.ctx["game"], op.ctx["acc1"], op.ctx["acc2"]
        problems = []
        if res.terminated_by != "gap":
            problems.append(f"terminated by {res.terminated_by}")
        for rec in res.trace:
            problems += _record_problems(name, rec, acc1, acc2)
        if name == "g1" and abs(res.value - ref.G1_VALUE) > 1e-3:
            problems.append(f"value {res.value} is not within 1e-3 of {ref.G1_VALUE}")
        problems += _final_bound_problems(name, res.trace[-1], res.p_star, res.q_star, acc1, acc2)
        values.setdefault(name, []).append(res.value)
        found.append(problems)
    # The game value is unique, so every start must land on it.
    for i, op in enumerate(ops):
        vals = values[op.ctx["game"]]
        limit = 2 * max(op.ctx["acc1"], op.ctx["acc2"]) + EPSILON
        if max(vals) - min(vals) > limit:
            found[i].append(f"values of the starts span {max(vals) - min(vals)} > {limit}")
    return found


def build_fp_1d(seed, tracer):
    """Fictitious play on g1 and g2 from 0.0, for a fixed round budget.

    The inputs do not depend on the seed: the cost of a run depends strongly
    on where it starts, and two runs a round cannot average that out.
    """
    solve = _wrap(tracer, "fictitious_play.run_fictitious_play", do.run_fictitious_play)
    ops = []
    for name, make, lipschitz in ONE_DIM_GAMES:
        game = make()
        o1, o2 = _one_dim_oracles(tracer, name, game, lipschitz)
        call = functools.partial(solve, game, o1, o2, do.point(0.0), do.point(0.0), iters=FP_ROUNDS)
        ops.append(Op(f"{name} fictitious play", call, {"game": name, "acc1": o1.accuracy, "acc2": o2.accuracy}))
    return ops


def check_fp_1d(ops, outputs):
    found = []
    for op, res in zip(ops, outputs):
        name, acc1, acc2 = op.ctx["game"], op.ctx["acc1"], op.ctx["acc2"]
        problems = []
        if len(res.trace) != FP_ROUNDS:
            problems.append(f"{len(res.trace)} rounds, expected {FP_ROUNDS}")
        for rec in res.trace:
            if rec.lower - acc2 > rec.upper + acc1 + FLOAT_TOL:
                problems.append(f"round {rec.index}: lower {rec.lower} above upper {rec.upper}")
            problems += _record_problems(name, rec, acc1, acc2)
        last = res.trace[-1]
        p, q = res.empirical1, res.empirical2
        problems += _final_bound_problems(name, last, p, q, acc1, acc2)
        utility = ref.ONE_DIM[name][0]
        value = ref.expected_payoff(utility, *_mixture_arrays(p), *_mixture_arrays(q))
        if abs(value - last.subgame_value) > FLOAT_TOL:
            problems.append(f"empirical profile pays {value}, last round reports {last.subgame_value}")
        found.append(problems)
    return found


# -- Colonel Blotto ----------------------------------------------------------

CORNERS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def build_blotto_lattice(seed, tracer):
    """Blotto on the c = 1/16 lattice from the corners, over seeded weights."""
    rng = np.random.default_rng(seed)
    solve = _wrap(tracer, "engine.run_double_oracle", do.run_double_oracle)
    corners = [do.allocation(c) for c in CORNERS]
    ops = []
    for k in range(LATTICE_GAMES):
        # No battlefield outweighs the other two together; if one did, all
        # budget on it would dominate and the solve would end in 1 iteration.
        a = tuple(float(v) for v in rng.uniform(0.75, 1.25, size=3))
        bg = do.BlottoGame(3, a, LATTICE_C)
        o1 = do.BlottoGridOracle(bg, 1)
        o2 = do.BlottoGridOracle(bg, 2)
        o1 = _oracle(tracer, o1, 1, len(o1.points))
        o2 = _oracle(tracer, o2, 2, len(o2.points))
        call = functools.partial(solve, game_definition(bg), o1, o2, corners, corners, epsilon=EPSILON)
        ops.append(Op(f"weights {k}", call, {"a": a}))
    return ops


def check_blotto_lattice(ops, outputs):
    found = []
    for op, res in zip(ops, outputs):
        a = op.ctx["a"]
        problems = []
        if res.terminated_by != "gap":
            problems.append(f"terminated by {res.terminated_by}")
        if res.gap > EPSILON + FLOAT_TOL:
            problems.append(f"gap {res.gap} > {EPSILON}")
        # Symmetric game with antisymmetric utility: the value is 0.
        if abs(res.value) > FLOAT_TOL:
            problems.append(f"value {res.value} is not 0")
        for rec in res.trace:
            problems += _record_problems("blotto", rec, 0.0, 0.0)
        last = res.trace[-1]
        upper, _ = ref.lattice_best_response(*_mixture_arrays(res.q_star), a, LATTICE_C, 1)
        lower, _ = ref.lattice_best_response(*_mixture_arrays(res.p_star), a, LATTICE_C, 2)
        if abs(last.upper - upper) > FLOAT_TOL or abs(last.lower - lower) > FLOAT_TOL:
            problems.append(f"bounds [{last.lower}, {last.upper}] vs lattice [{lower}, {upper}]")
        found.append(problems)
    return found


def _milp_query(rng, support, c):
    """A mixture whose atoms alternate between lattice points and free points."""
    steps = int(round(1.0 / c))
    atoms = []
    for i in range(support):
        if i % 2 == 0:
            cuts = np.sort(rng.integers(0, steps + 1, size=2))
            atoms.append(do.allocation(np.diff([0, *cuts, steps]) / steps))
        else:
            atoms.append(do.allocation(rng.dirichlet(np.ones(3))))
    return do.merge_duplicates(atoms, rng.dirichlet(np.ones(support)))


def build_blotto_milp(seed, tracer):
    """A fixed batch of opponent mixtures answered by the MILP oracle.

    The batch is drawn from :data:`MILP_BATCH_SEED`, not from ``seed``: the
    cost of a batch varies between draws by more than the bound on
    ``solve_s`` could absorb.
    """
    rng = np.random.default_rng(MILP_BATCH_SEED)
    a = (1.0, 1.0, 1.0)
    queries = [(do.dirac(do.allocation(MILP_HARD_QUERY[0])), MILP_HARD_QUERY[1])]
    for c in MILP_CS:
        queries += [(_milp_query(rng, s, c), c) for s in MILP_SUPPORTS]
    ops = []
    for k, (mix, c) in enumerate(queries):
        player = 1 + k % 2
        oracle = _oracle(tracer, do.BlottoMilpOracle(do.BlottoGame(3, a, c), player), player, 0)
        ops.append(Op(
            f"query {k} (support {mix.support_size}, c {c:g}, player {player})",
            functools.partial(oracle.respond, mix),
            {"mix": mix, "a": a, "c": c, "player": player, "acc": oracle.accuracy},
        ))
    return ops


def check_blotto_milp(ops, outputs):
    found = []
    for op, ans in zip(ops, outputs):
        mix, a, c, player, acc = (op.ctx[k] for k in ("mix", "a", "c", "player", "acc"))
        atoms, weights = _mixture_arrays(mix)
        problems = []
        x = np.asarray(ans.point.coords, dtype=float)
        if x.shape != (3,) or x.min() < -FLOAT_TOL or abs(x.sum() - 1.0) > FLOAT_TOL:
            problems.append(f"allocation {ans.point.coords} is off the simplex")
        else:
            paid = float(ref.blotto_payoffs(x[None, :], atoms, weights, a, c, player)[0])
            if abs(ans.value - paid) > acc:
                problems.append(f"value {ans.value} but the allocation pays {paid}")
        exact, _ = ref.blotto_best_response(atoms, weights, a, c, player)
        if abs(ans.value - exact) > acc:
            problems.append(f"value {ans.value} vs exact best response {exact}")
        found.append(problems)
    return found


class Workload(NamedTuple):
    build: Callable[[int, Any], list[Op]]
    check: Callable[[list[Op], list[Any]], list[list[str]]]
    steps: Callable[[Any], int]  # what ``iterations`` counts for one output


WORKLOADS = {
    "do-1d": Workload(build_do_1d, check_do_1d, lambda res: res.iterations),
    "fp-1d": Workload(build_fp_1d, check_fp_1d, lambda res: len(res.trace)),
    "blotto-lattice": Workload(build_blotto_lattice, check_blotto_lattice, lambda res: res.iterations),
    "blotto-milp": Workload(build_blotto_milp, check_blotto_milp, lambda answer: 1),
}
