"""Mixed 0/1 linear programs, solved by HiGHS through ``scipy.optimize.milp``.

Models are stated in maximization form::

    max  objective @ x + offset
    s.t. lhs[i] @ x  (senses[i])  rhs[i]      senses in {"<=", ">=", "="}
         lower <= x <= upper                  entries may be +-inf

:class:`LinearProgram` holds and validates such a model, :class:`MilpModel`
marks some of its variables binary, and :func:`solve_milp` hands the model to
HiGHS with a zero relative optimality gap.  ``scipy.optimize.milp`` does not
expose HiGHS's absolute gap, so that stays at its default of 1e-6: an
"optimal" answer may lie up to 1e-6 below the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as _scipy_milp

from .errors import ModelError, ResourceLimitError

DEFAULT_NODE_LIMIT = 10**6

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_SENSES = {LESS_EQUAL, GREATER_EQUAL, EQUAL}

# scipy.optimize.milp statuses.  An exhausted node budget, which HiGHS
# reports as "Solution limit reached", arrives as _OTHER like a solve error.
_OPTIMAL, _INFEASIBLE, _UNBOUNDED, _OTHER = 0, 2, 3, 4


@dataclass
class LinearProgram:
    """A dense LP in the maximization form described in the module docstring."""

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    offset: float = 0.0

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).reshape(-1)
        n = self.objective.size
        try:
            self.lhs = np.asarray(self.lhs, dtype=float).reshape(-1, n) if n else np.zeros((0, 0))
        except ValueError as exc:
            raise ModelError(f"lhs is not a matrix with {n} columns") from exc
        self.rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        senses = tuple("=" if s in ("=", "==") else s for s in self.senses)
        if any(s not in _SENSES for s in senses):
            raise ModelError(f"unknown constraint sense in {senses}")
        self.senses = senses
        m = self.lhs.shape[0]
        if self.rhs.size != m or len(self.senses) != m:
            raise ModelError(
                f"inconsistent row counts: {m} lhs rows, {self.rhs.size} rhs, "
                f"{len(self.senses)} senses"
            )
        self.lower = (
            np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float).reshape(-1)
        )
        self.upper = (
            np.full(n, np.inf)
            if self.upper is None
            else np.asarray(self.upper, dtype=float).reshape(-1)
        )
        if self.lower.size != n or self.upper.size != n:
            raise ModelError("bound vectors must match the objective length")
        if np.any(self.lower > self.upper):
            j = int(np.argmax(self.lower > self.upper))
            raise ModelError(f"variable {j} has lower {self.lower[j]} > upper {self.upper[j]}")
        if not np.all(np.isfinite(self.objective)):
            raise ModelError("objective coefficients must be finite")
        if not (np.all(np.isfinite(self.lhs)) and np.all(np.isfinite(self.rhs))):
            raise ModelError("constraint coefficients must be finite")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.lhs.shape[0]


@dataclass
class MilpModel:
    """An LP together with the indices of its binary variables."""

    lp: LinearProgram
    binary_vars: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(j) for j in self.binary_vars)
        n = self.lp.n_vars
        if len(set(idx)) != len(idx):
            raise ModelError("duplicate binary variable index")
        for j in idx:
            if not 0 <= j < n:
                raise ModelError(f"binary index {j} out of range for {n} variables")
            if self.lp.lower[j] < -1e-12 or self.lp.upper[j] > 1.0 + 1e-12:
                raise ModelError(
                    f"binary variable {j} must have relaxation bounds within [0, 1], "
                    f"got [{self.lp.lower[j]}, {self.lp.upper[j]}]"
                )
        self.binary_vars = tuple(sorted(idx))


@dataclass
class MilpSolution:
    """Solver outcome: ``status`` in {"optimal", "infeasible", "unbounded"}.

    ``bound`` is the proved upper bound on the optimum at termination and
    ``nodes`` the branch-and-bound node count HiGHS reports.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    nodes: int = 0
    bound: float = math.nan


def solve_milp(model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> MilpSolution:
    """Maximize the model over binary assignments of its integer variables.

    Returns an optimal, infeasible or unbounded outcome; "optimal" is within
    HiGHS's default absolute gap of 1e-6 (see the module docstring).  HiGHS
    presolve can
    end in "Solve error" on a model that solves without it (the Blotto best
    response to the dirac at (0.5, 0.25, 0.25) with c = 1/8 is one), so that
    status is retried once with presolve off.  Exceeding ``node_limit``
    raises :class:`ResourceLimitError` carrying the best incumbent (or None)
    and the proved bound.
    """
    lp = model.lp
    integrality = np.zeros(lp.n_vars)
    integrality[list(model.binary_vars)] = 1
    rows = None
    if lp.n_rows:
        senses = np.asarray(lp.senses)
        rows = LinearConstraint(
            lp.lhs,
            np.where(senses == LESS_EQUAL, -np.inf, lp.rhs),
            np.where(senses == GREATER_EQUAL, np.inf, lp.rhs),
        )
    options = {"mip_rel_gap": 0.0, "node_limit": node_limit}

    def run(**extra):
        res = _scipy_milp(
            -lp.objective,
            integrality=integrality,
            bounds=Bounds(lp.lower, lp.upper),
            constraints=rows,
            options={**options, **extra},
        )
        return res, int(res.mip_node_count or 0)

    res, nodes = run()
    if res.status == _OTHER and nodes < node_limit:
        res, nodes = run(presolve=False)

    if res.status == _OPTIMAL:
        objective = lp.offset - float(res.fun)
        # A model without binaries is solved as a plain LP, with no MIP bound.
        dual = res.mip_dual_bound
        bound = objective if dual is None else lp.offset - float(dual)
        return MilpSolution("optimal", res.x, objective, nodes=nodes, bound=bound)
    if res.status == _INFEASIBLE:
        return MilpSolution("infeasible", nodes=nodes, bound=-math.inf)
    if res.status == _UNBOUNDED:
        return MilpSolution("unbounded", nodes=nodes, bound=math.inf)
    if nodes >= node_limit:
        bound = lp.offset - float(res.mip_dual_bound)
        raise ResourceLimitError(
            f"branch-and-bound node limit {node_limit} exceeded (bound {bound!r})",
            incumbent=res.x,
            bound=bound,
        )
    raise ModelError(f"HiGHS MILP ended with status {res.status}: {res.message}")
