"""Mixed 0/1 linear programs, solved by HiGHS through ``scipy.optimize.milp``.

A :class:`MilpModel` is stated in the form HiGHS takes, as a maximization::

    max  objective @ x + offset
    s.t. row_lower <= rows @ x <= row_upper      entries may be +-inf
         0 <= x <= upper,  x[binary] in {0, 1}

The models are built inside the package (the Blotto best response in
:mod:`.blotto`), so none is validated here.  :func:`solve_milp` hands a model
to HiGHS with a zero relative optimality gap.  ``scipy.optimize.milp`` does
not expose HiGHS's absolute gap, so that stays at its default of 1e-6: an
optimal answer may lie up to 1e-6 below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as _scipy_milp

from .errors import ModelError, ResourceLimitError

DEFAULT_NODE_LIMIT = 10**6

# scipy.optimize.milp statuses.  An exhausted node budget, which HiGHS
# reports as "Solution limit reached", arrives as _OTHER like a solve error.
_OPTIMAL, _OTHER = 0, 4


@dataclass(frozen=True)
class MilpModel:
    """A MILP in the form of the module docstring; ``binary`` is a mask.

    ``rows`` is a dense array or a scipy sparse matrix; HiGHS gets it in
    CSC form either way.
    """

    objective: np.ndarray
    rows: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    upper: np.ndarray
    binary: np.ndarray
    offset: float = 0.0


@dataclass(frozen=True)
class MilpSolution:
    """An optimal point ``x`` and the branch-and-bound node count HiGHS reports."""

    x: np.ndarray
    nodes: int


def solve_milp(model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> MilpSolution:
    """Maximize the model over binary assignments of its ``binary`` variables.

    "Optimal" is within HiGHS's default absolute gap of 1e-6 (see the module
    docstring).  HiGHS presolve can end in "Solve error" on a model that
    solves without it, so that status is retried once with presolve off.
    Exceeding ``node_limit`` raises :class:`ResourceLimitError` carrying the
    best incumbent (or None) and the proved bound; any other non-optimal end
    raises :class:`ModelError`.
    """
    options = {"mip_rel_gap": 0.0, "node_limit": node_limit}

    def run(**extra):
        res = _scipy_milp(
            -model.objective,
            integrality=model.binary,
            bounds=Bounds(0.0, model.upper),
            constraints=LinearConstraint(model.rows, model.row_lower, model.row_upper),
            options={**options, **extra},
        )
        return res, int(res.mip_node_count or 0)

    res, nodes = run()
    if res.status == _OTHER and nodes < node_limit:
        res, nodes = run(presolve=False)

    if res.status == _OPTIMAL:
        return MilpSolution(res.x, nodes)
    if nodes >= node_limit:
        bound = model.offset - float(res.mip_dual_bound)
        raise ResourceLimitError(
            f"branch-and-bound node limit {node_limit} exceeded (bound {bound!r})",
            incumbent=res.x,
            bound=bound,
        )
    raise ModelError(f"HiGHS MILP ended with status {res.status}: {res.message}")
