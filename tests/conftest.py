"""Shared fixtures.

``line_topology`` and ``plane_topology`` are small hand-made metrics with
known structure (so tests can assert exact optima); ``planetlab`` and
``daxlist`` are the bundled datasets, session-scoped because generation and
metric closure are not free. ``lp_backend`` runs a test once per LP solve
path. ``fast_figure`` is each registry figure's serial fast run, computed
once per session; ``counting_pool`` records the process pools a test's
runners open.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.experiments import run_figure
from repro.experiments.series import FigureResult
from repro.lp.batched import LP_BACKEND_ENV
from repro.network.graph import Topology


@pytest.fixture(params=["auto", "scipy"])
def lp_backend(request, monkeypatch) -> str:
    """Run the test under the auto-probed LP backend (HiGHS when
    importable) and again with ``REPRO_LP_BACKEND=scipy`` forcing the
    cold ``linprog`` fallback; pool workers inherit the environment via
    fork."""
    if request.param == "scipy":
        monkeypatch.setenv(LP_BACKEND_ENV, "scipy")
    return request.param


def _metric_from_points(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


@pytest.fixture(scope="session")
def line_topology() -> Topology:
    """10 nodes on a line at positions 0, 10, 20, ..., 90 (ms apart)."""
    points = np.array([[10.0 * i, 0.0] for i in range(10)])
    return Topology(_metric_from_points(points), metric_closure=False)


@pytest.fixture(scope="session")
def plane_topology() -> Topology:
    """16 nodes on a 4x4 planar grid with 20 ms spacing."""
    points = np.array(
        [[20.0 * r, 20.0 * c] for r in range(4) for c in range(4)]
    )
    return Topology(_metric_from_points(points), metric_closure=False)


@pytest.fixture(scope="session")
def clustered_topology() -> Topology:
    """Two tight clusters of 6 nodes each, 100 ms apart.

    Nodes 0-5 sit at x = 0, 1, ..., 5; nodes 6-11 at x = 100, ..., 105.
    """
    xs = [float(i) for i in range(6)] + [100.0 + i for i in range(6)]
    points = np.array([[x, 0.0] for x in xs])
    return Topology(_metric_from_points(points), metric_closure=False)


@pytest.fixture(scope="session")
def planetlab() -> Topology:
    from repro.network.datasets import planetlab_50

    return planetlab_50()


@pytest.fixture(scope="session")
def daxlist() -> Topology:
    from repro.network.datasets import daxlist_161

    return daxlist_161()


@contextmanager
def _counting_pools() -> Iterator[list]:
    """Patch the runner's executor class; yield the pools opened meanwhile."""
    import repro.runtime.runner as runner_module

    opened: list = []
    real_pool = runner_module.ProcessPoolExecutor

    class CountingPool(real_pool):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "ProcessPoolExecutor", CountingPool)
        yield opened


@pytest.fixture()
def counting_pool():
    """Patches the runner's executor class; returns the instances list."""
    with _counting_pools() as opened:
        yield opened


class FastFigures:
    """Each registry figure's fast run at ``jobs=1``, made on first use.

    Calling it with a figure id returns the :class:`FigureResult`;
    :meth:`pools` is the number of process pools that run opened. Readers
    share the result, so none may mutate it.
    """

    def __init__(self) -> None:
        self._runs: dict[str, tuple[FigureResult, int]] = {}

    def _run(self, figure_id: str) -> tuple[FigureResult, int]:
        if figure_id not in self._runs:
            with _counting_pools() as opened:
                result = run_figure(figure_id, fast=True, jobs=1)
            self._runs[figure_id] = (result, len(opened))
        return self._runs[figure_id]

    def __call__(self, figure_id: str) -> FigureResult:
        return self._run(figure_id)[0]

    def pools(self, figure_id: str) -> int:
        return self._run(figure_id)[1]


@pytest.fixture(scope="session")
def fast_figure() -> FastFigures:
    """``fast_figure(figure_id)``: the figure's serial fast run, computed
    once per session and shared by every reader."""
    return FastFigures()
