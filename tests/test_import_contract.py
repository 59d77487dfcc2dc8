"""The LP layer's import contract: ``scipy.optimize`` loads only when used.

:mod:`repro.lp.batched` loads the HiGHS extension that scipy vendors from
its file, without running ``scipy/optimize/__init__.py``, and imports
``linprog`` on the scipy fallback's first solve. Each test runs its
script in a fresh interpreter: the test process's ``sys.modules`` already
holds whatever the other tests imported.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lp.batched import LP_BACKEND_ENV

SRC = Path(__file__).resolve().parent.parent / "src"

#: The figure every run below prints; it solves LPs at every grid point.
FIGURE = "fig_7_6"

_FIGURE_RUN = f"""
import json, sys
import repro, repro.cli
from repro.experiments import run_figure
from repro.lp.batched import lp_backend_name
table = run_figure({FIGURE!r}, fast=True).render_text()
print(json.dumps({{
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "backend": lp_backend_name(),
    "table": table,
}}))
"""

#: Makes the direct load of the extension find nothing: only the lookup
#: that runs before its parent package is imported fails.
_BLOCK_DIRECT_LOAD = """
import importlib.machinery, sys
_find = importlib.machinery.PathFinder.find_spec.__func__

def find_spec(cls, name, path=None, target=None):
    if (
        name == "scipy.optimize._highspy._core"
        and "scipy.optimize._highspy" not in sys.modules
    ):
        return None
    return _find(cls, name, path, target)

importlib.machinery.PathFinder.find_spec = classmethod(find_spec)
"""

_STRATEGY_PROGRAM = """
import numpy as np
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.network.datasets import planetlab_50
from repro.quorums.grid import GridQuorumSystem
from repro.strategies.lp_optimizer import StrategyProgram

placed = PlacedQuorumSystem(
    GridQuorumSystem(3), Placement(np.arange(0, 45, 5)), planetlab_50()
)

def solve():
    program = StrategyProgram(placed)
    matrix = program.solve(0.6).matrix
    return program, matrix.tobytes().hex()
"""


def _run(script: str, **env: str) -> dict:
    """The JSON object the last line of ``script``'s stdout holds; the
    script runs on the auto-probed backend unless ``env`` says otherwise."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC))
        patch.delenv(LP_BACKEND_ENV, raising=False)
        for name, value in env.items():
            patch.setenv(name, value)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default_run() -> dict:
    """A fast figure run on the auto-probed backend, in a fresh process."""
    run = _run(_FIGURE_RUN)
    if run["backend"] != "scipy-highspy":
        pytest.skip("scipy's vendored HiGHS bindings are not the backend here")
    return run


def test_a_figure_run_never_loads_scipy_optimize(default_run):
    assert default_run["optimize_loaded"] is False


def test_a_later_scipy_optimize_reuses_the_loaded_bindings():
    """The direct load registers the bindings under their canonical name;
    ``import scipy.optimize`` after it works, ``linprog`` solves on it,
    and every program solves on the one module that ``sys.modules``
    holds, with the same bits before and after."""
    run = _run(
        _STRATEGY_PROGRAM
        + """
import json, sys
from repro.lp.batched import _VENDORED_HIGHS, lp_backend_name
first, before = solve()
loaded_before = "scipy.optimize" in sys.modules
registered = sys.modules.get(_VENDORED_HIGHS) is first._batched._impl._hs
from scipy.optimize import linprog
result = linprog(
    [1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
    bounds=[(0.0, 10.0)] * 2, method="highs",
)
second, after = solve()
module = sys.modules[_VENDORED_HIGHS]
print(json.dumps({
    "backend": lp_backend_name(),
    "loaded_before": loaded_before,
    "registered": registered,
    "linprog": [int(result.status), float(result.fun)],
    "same_module": (
        first._batched._impl._hs is module
        and second._batched._impl._hs is module
    ),
    "before": before,
    "after": after,
}))
"""
    )
    if run["backend"] != "scipy-highspy":
        pytest.skip("scipy's vendored HiGHS bindings are not the backend here")
    assert run["loaded_before"] is False
    assert run["registered"] is True
    assert run["linprog"] == [0, 1.0]
    assert run["same_module"] is True
    assert run["after"] == run["before"]


def test_a_failed_direct_load_falls_back_to_the_package(default_run):
    """With the direct load broken, the bindings come through
    ``scipy.optimize`` and the figure prints the default run's bytes."""
    run = _run(_BLOCK_DIRECT_LOAD + _FIGURE_RUN)
    assert run["backend"] == "scipy-highspy"
    assert run["optimize_loaded"] is True
    assert run["table"] == default_run["table"]


def test_the_scipy_fallback_loads_scipy_optimize_at_its_first_solve():
    run = _run(
        _STRATEGY_PROGRAM
        + """
import json, sys
import repro, repro.cli
from repro.lp.batched import lp_backend_name
at_import = "scipy.optimize" in sys.modules
program = StrategyProgram(placed)
at_build = "scipy.optimize" in sys.modules
program.solve(0.6)
print(json.dumps({
    "backend": lp_backend_name(),
    "program": program._batched.backend,
    "loaded": [at_import, at_build, "scipy.optimize" in sys.modules],
}))
""",
        **{LP_BACKEND_ENV: "scipy"},
    )
    assert run["backend"] == run["program"] == "scipy"
    assert run["loaded"] == [False, False, True]
