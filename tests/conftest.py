"""Shared fixtures.

``line_topology`` and ``plane_topology`` are small hand-made metrics with
known structure (so tests can assert exact optima); ``planetlab`` and
``daxlist`` are the bundled datasets, session-scoped because generation and
metric closure are not free. ``lp_backend`` runs a test once per LP solve
path.
"""

from __future__ import annotations

import numpy as np
import pytest

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
