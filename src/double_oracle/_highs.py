"""scipy's compiled HiGHS binding, loaded without importing ``scipy.optimize``.

The subgame LP and the Blotto MILP need only the extension
``scipy.optimize._highspy._core`` (scipy 1.15 or later), but importing it by
name runs ``scipy.optimize.__init__``, which also loads ``scipy.sparse`` and
takes most of a cold start.  So the extension file is found and executed on
its own, under its canonical name in ``sys.modules``; a later ``import
scipy.optimize`` reuses that module (and one loaded earlier is reused here),
so ``_Highs`` is one class everywhere.  The parent package does not get it as
an attribute: use ``from scipy.optimize._highspy import _core``, not
``scipy.optimize._highspy._core``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.optimize._highspy._core"


def _load():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [folder])
    if spec is None:
        raise ImportError(
            f"scipy {scipy.__version__} has no HiGHS binding {_NAME}; "
            "double_oracle needs scipy 1.15 or later"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_core = _load()
HighsLp = _core.HighsLp
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
HighsVarType = _core.HighsVarType
MatrixFormat = _core.MatrixFormat
_Highs = _core._Highs
