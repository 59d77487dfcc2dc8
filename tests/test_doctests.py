"""Run the doctests embedded in public docstrings.

The LP and runtime packages carry runnable examples in their public API
docstrings (ISSUE 3 satellite); this suite executes them on whatever LP
backend the environment selects, and CI additionally re-runs it with
``REPRO_LP_BACKEND=scipy`` so the examples hold on both solver paths.
"""

import doctest

import pytest

import repro.cli
import repro.dynamics.controller
import repro.lp.batched
import repro.lp.problem
import repro.quorums.threshold
import repro.runtime.cache
import repro.runtime.grid
import repro.runtime.runner


@pytest.mark.parametrize(
    "module",
    [
        repro.cli,
        repro.dynamics.controller,
        repro.lp.batched,
        repro.lp.problem,
        repro.quorums.threshold,
        repro.runtime.cache,
        repro.runtime.grid,
        repro.runtime.runner,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
