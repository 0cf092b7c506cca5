"""Mixed 0/1 linear programs, solved by HiGHS through scipy's compiled binding.

A :class:`MilpModel` is stated in the form HiGHS takes, as a maximization::

    max  objective @ x + offset
    s.t. row_lower <= rows @ x <= row_upper      entries may be +-inf
         0 <= x <= upper,  x[binary] in {0, 1}

The models are built inside the package (the Blotto best response in
:mod:`.blotto`), so none is validated here.  HiGHS takes the row matrix
column-wise; :func:`csc_from_entries` puts nonzeros in that form with numpy
alone, so neither ``scipy.sparse`` nor ``scipy.optimize`` is imported (see
:mod:`._highs`).  :func:`solve_milp` passes a model to a ``_Highs``
instance, the binding :mod:`.matrix_game` uses for the subgame LP, with a
zero relative gap and an absolute gap of :data:`MIP_ABS_GAP`: an optimal
answer may lie up to that far below the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._highs import HighsLp, HighsModelStatus, HighsVarType, MatrixFormat, _Highs
from .errors import ModelError, ResourceLimitError

DEFAULT_NODE_LIMIT = 10**6

# HiGHS's absolute optimality gap (its default), set explicitly.
MIP_ABS_GAP = 1e-6

# The models built here are small (tens of columns) and close at the root
# node, where HiGHS's presolve and these primal heuristics cost more than
# they save.  Presolve off also keeps HiGHS's MIP postsolve, which can write
# to stdout, from running.  A run that ends non-optimal under these options
# is repeated once without them.
SMALL_MODEL_OPTIONS = {
    "presolve": "off",
    "mip_heuristic_run_feasibility_jump": False,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_root_reduced_cost": False,
}


class CscMatrix(NamedTuple):
    """A matrix in canonical compressed sparse column form.

    Column ``j`` holds ``data[indptr[j]:indptr[j + 1]]`` in rows
    ``indices[indptr[j]:indptr[j + 1]]``, rows ascending, each at most once;
    ``indptr`` and ``indices`` are int32.  This is the form, array for array,
    that ``scipy.sparse.csc_array`` gives the same matrix.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def csc_from_entries(row, col, data, shape: tuple[int, int]) -> CscMatrix:
    """The matrix with ``data[k]`` at ``(row[k], col[k])``; each position at most once."""
    order = np.lexsort((row, col))
    indptr = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=shape[1]), out=indptr[1:])
    indices = np.asarray(row, dtype=np.int32)[order]
    return CscMatrix(shape, indptr, indices, np.asarray(data, dtype=float)[order])


@dataclass(frozen=True)
class MilpModel:
    """A MILP in the form of the module docstring; ``binary`` is a mask.

    ``rows`` is a :class:`CscMatrix`, which HiGHS takes as it is; build one
    from nonzeros with :func:`csc_from_entries`.
    """

    objective: np.ndarray
    rows: CscMatrix
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


def _highs_lp(model: MilpModel) -> HighsLp:
    """``model`` as HiGHS's minimization of ``-objective``, without the offset."""
    rows = model.rows
    lp = HighsLp()
    lp.num_row_, lp.num_col_ = rows.shape
    lp.col_cost_ = -np.asarray(model.objective, dtype=float)
    lp.col_lower_ = np.zeros(lp.num_col_)
    lp.col_upper_ = np.asarray(model.upper, dtype=float)
    lp.row_lower_ = np.asarray(model.row_lower, dtype=float)
    lp.row_upper_ = np.asarray(model.row_upper, dtype=float)
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = rows.shape
    lp.a_matrix_.start_ = rows.indptr
    lp.a_matrix_.index_ = rows.indices
    lp.a_matrix_.value_ = rows.data
    lp.integrality_ = [
        HighsVarType.kInteger if b else HighsVarType.kContinuous for b in model.binary
    ]
    return lp


def _run(lp: HighsLp, node_limit: int, options: dict) -> _Highs:
    highs = _Highs()
    for name, value in {
        "output_flag": False,
        "mip_rel_gap": 0.0,
        "mip_abs_gap": MIP_ABS_GAP,
        "mip_max_nodes": node_limit,
        **options,
    }.items():
        highs.setOptionValue(name, value)
    highs.passModel(lp)
    highs.run()
    return highs


def solve_milp(model: MilpModel, node_limit: int = DEFAULT_NODE_LIMIT) -> MilpSolution:
    """Maximize the model over binary assignments of its ``binary`` variables.

    "Optimal" is within :data:`MIP_ABS_GAP` (see the module docstring).  The
    first run uses :data:`SMALL_MODEL_OPTIONS`; one that ends neither optimal
    nor at the node limit is repeated once with HiGHS's defaults for them.
    Exceeding ``node_limit`` raises :class:`ResourceLimitError` carrying the
    best incumbent (or None) and the proved bound; any other non-optimal end
    raises :class:`ModelError` naming HiGHS's model status.
    """
    lp = _highs_lp(model)
    highs = _run(lp, node_limit, SMALL_MODEL_OPTIONS)
    status = highs.getModelStatus()
    if status not in (HighsModelStatus.kOptimal, HighsModelStatus.kSolutionLimit):
        highs = _run(lp, node_limit, {})
        status = highs.getModelStatus()

    info = highs.getInfo()
    solution = highs.getSolution()
    x = np.asarray(solution.col_value) if solution.value_valid else None
    if status == HighsModelStatus.kOptimal:
        # HiGHS counts -1 nodes for a model without binaries.
        return MilpSolution(x, max(int(info.mip_node_count), 0))
    if status == HighsModelStatus.kSolutionLimit:
        bound = model.offset - float(info.mip_dual_bound)
        raise ResourceLimitError(
            f"branch-and-bound node limit {node_limit} exceeded (bound {bound!r})",
            incumbent=x,
            bound=bound,
        )
    raise ModelError(f"HiGHS MILP ended with status {highs.modelStatusToString(status)!r}")
