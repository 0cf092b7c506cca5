"""How the package reaches HiGHS: scipy's compiled binding, without scipy.optimize.

Each check runs in a fresh interpreter, since an import that has already
happened in the test process cannot be undone.
"""

import os
import subprocess
import sys
import textwrap

import pytest
import scipy

import double_oracle

SRC = os.path.dirname(os.path.dirname(os.path.abspath(double_oracle.__file__)))


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this package; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_leaves_out_scipy_optimize_and_sparse():
    out = run_fresh("""
        import sys
        import double_oracle
        print(sorted(m for m in sys.modules
                     if m in ("scipy.optimize", "scipy.sparse") or m.startswith("scipy.sparse.")))
    """)
    assert out.strip() == "[]"


@pytest.mark.parametrize("scipy_optimize_first", [True, False])
def test_one_binding_in_either_import_order(scipy_optimize_first):
    out = run_fresh(f"""
        import sys
        if {scipy_optimize_first}:
            import scipy.optimize
        from double_oracle import embed_matrix_game, matrix_game, milp, solve_zero_sum, subgame_matrix
        rps = embed_matrix_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        value = solve_zero_sum(subgame_matrix(*rps))[2]
        assert abs(value) < 1e-9, value

        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert sys.modules["scipy.optimize._highspy._core"] is _core
        assert matrix_game._Highs is milp._Highs is _core._Highs
        res = scipy.optimize.linprog(
            [-1.0, -1.0], A_ub=[[1.0, 2.0]], b_ub=[1.0], bounds=[(0, 1)] * 2, method="highs"
        )
        assert res.status == 0 and abs(res.fun + 1.0) < 1e-9, res
        print("ok")
    """)
    assert out.strip() == "ok"


def test_missing_binding_names_the_scipy_floor():
    out = run_fresh("""
        import importlib.machinery

        find_spec = importlib.machinery.PathFinder.find_spec

        def hide_binding(name, path=None, target=None):
            if name == "scipy.optimize._highspy._core":
                return None
            return find_spec(name, path, target)

        importlib.machinery.PathFinder.find_spec = hide_binding
        try:
            import double_oracle
        except ImportError as exc:
            print(exc)
    """)
    assert f"scipy {scipy.__version__}" in out
    assert "1.15 or later" in out
