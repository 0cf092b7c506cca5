"""Spans and counts recorded around calls into the package's layers.

The wrappers live in the benchmark, not in the package: they replace the
names that each module looks up at call time (``engine.solve_zero_sum``,
``blotto.solve_milp``, ...) and wrap the oracle objects the benchmark passes
in.  ``matrix_game`` and ``milp`` bind ``scipy.optimize.linprog`` when they
are imported, so :func:`install_scipy` must run before ``double_oracle`` is
imported; :func:`install_package` runs after.

Every wrapper checks :attr:`Tracer.on`, so untraced rounds in a traced run
pass straight through.  Spans are kept in memory as ``[name, start, end,
parent]`` and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

LINPROG_SUBGAME = "highs.linprog.subgame"
LINPROG_MILP_NODE = "highs.linprog.milp_node"
SOLVE_ZERO_SUM = "matrix_game.solve_zero_sum"

# (module, attribute, span name).  Attributes a later version of the package
# no longer has are skipped; their metrics then read 0.
PACKAGE_SITES = (
    ("engine", "subgame_matrix", "matrix_game.subgame_matrix"),
    ("engine", "solve_zero_sum", SOLVE_ZERO_SUM),
    ("engine", "expected_utility", "core.expected_utility"),
    ("fictitious_play", "expected_utility", "core.expected_utility"),
    ("fictitious_play", "merge_duplicates", "core.merge_duplicates"),
    ("matrix_game", "merge_duplicates", "core.merge_duplicates"),
    ("matrix_game", "solve_lp", "linprog.solve_lp"),
    ("milp", "solve_lp", "linprog.solve_lp"),
    ("blotto", "solve_milp", "milp.solve_milp"),
    ("blotto", "build_best_response_milp", "blotto.build_best_response_milp"),
)


class Tracer:
    """Span recorder shared by every wrapper of one benchmark process."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_size = 0

    # -- recording -------------------------------------------------------

    def _ancestor_names(self):
        return (self.spans[i][0] for i in reversed(self.stack))

    def _run(self, name, fn, args, kwargs):
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` with a span named ``name`` around each traced call.

        ``count(result, args, kwargs)`` adds the call's counters.
        """

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            out = self._run(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_linprog(self, fn):
        """scipy's linprog, split by calling span: subgame LP or MILP node."""

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            name = LINPROG_SUBGAME if SOLVE_ZERO_SUM in self._ancestor_names() else LINPROG_MILP_NODE
            out = self._run(name, fn, args, kwargs)
            self.counts[name + ".calls"] += 1
            if getattr(out, "status", 0) != 0:
                self.counts[name + ".nonoptimal"] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def oracle(self, inner, player, candidates):
        """Wrap a best-response oracle; ``candidates`` is its search size (0 if none)."""
        return _TracedOracle(self, inner, player, candidates)

    # -- results ---------------------------------------------------------

    def summary(self):
        """Inclusive and self time per span name, and the sum of root spans."""
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        children: dict[int, list[int]] = defaultdict(list)
        roots = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                roots += end - start
            else:
                children[parent].append(idx)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += (end - start) - _covered(start, end, [self.spans[c] for c in children[idx]])
        return inclusive, self_time, roots

    def dump(self, path, extra):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(extra) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _covered(start, end, kids):
    """Length of the part of [start, end] that the child spans cover."""
    total = 0.0
    reach = start
    for _, k_start, k_end, _ in sorted(kids, key=lambda s: s[1]):
        lo = max(k_start, reach)
        hi = min(k_end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _TracedOracle:
    def __init__(self, tracer, inner, player, candidates):
        self.tracer = tracer
        self.inner = inner
        self.accuracy = inner.accuracy
        self.name = f"oracle.p{player}"
        self.candidates = candidates

    def respond(self, opponent):
        tracer = self.tracer
        if not tracer.on:
            return self.inner.respond(opponent)
        out = tracer._run(self.name, self.inner.respond, (opponent,), {})
        support = opponent.support_size
        tracer.counts["oracle.calls"] += 1
        tracer.counts["oracle.support"] += support
        tracer.counts["oracle.cells"] += self.candidates * support
        return out


def install_scipy(tracer):
    """Wrap scipy's LP and MILP entry points; call before importing the package."""
    import scipy.optimize

    scipy.optimize.linprog = tracer.wrap_linprog(scipy.optimize.linprog)
    if hasattr(scipy.optimize, "milp"):
        scipy.optimize.milp = tracer.wrap("highs.milp", scipy.optimize.milp)


def install_package(tracer):
    """Wrap the layer functions in the namespaces where the package looks them up."""
    counters = {
        "matrix_game.subgame_matrix": lambda out, args, kw: tracer.counts.update(
            {"matrix_game.subgame_matrix.cells": int(out.payoff.size)}
        ),
        SOLVE_ZERO_SUM: lambda out, args, kw: _note_size(tracer, args[0].payoff.shape),
        "core.merge_duplicates": lambda out, args, kw: tracer.counts.update(
            {"core.merge_duplicates.atoms": len(args[0])}
        ),
        "milp.solve_milp": lambda out, args, kw: tracer.counts.update(
            {"milp.solve_milp.nodes": int(getattr(out, "nodes", 0))}
        ),
    }
    for module_name, attr, span in PACKAGE_SITES:
        try:
            module = importlib.import_module("double_oracle." + module_name)
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if fn is not None:
            setattr(module, attr, tracer.wrap(span, fn, counters.get(span)))
    for module_name in ("matrix_game", "milp"):
        try:
            module = importlib.import_module("double_oracle." + module_name)
        except ImportError:
            continue
        bound = getattr(module, "_scipy_linprog", None)
        if bound is not None and not hasattr(bound, "__wrapped__"):
            raise RuntimeError(f"double_oracle.{module_name} bound linprog before it was wrapped")


def _note_size(tracer, shape):
    tracer.max_size = max(tracer.max_size, *shape)
