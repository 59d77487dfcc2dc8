"""Reference implementations that tests compare the library against.

Each is the plain, loop-level form of something the library computes in a
vectorized or closed form; none of them is on any library code path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import QuorumSystemError, TopologyError
from repro.network.geo import EARTH_RADIUS_KM
from repro.network.graph import Topology
from repro.quorums.base import QuorumSystem
from repro.quorums.order_stats import max_order_statistic_pmf


def expected_max_of_random_subset(values: np.ndarray, q: int) -> float:
    """``E[max of a uniformly random q-subset of values]``, exactly.

    ``values`` need not be sorted. Ties are handled correctly because the
    pmf depends only on sorted positions.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    pmf = max_order_statistic_pmf(len(x), q)
    return float(np.dot(pmf, x))


def great_circle_km(
    lat1: float, lon1: float, lat2: float, lon2: float
) -> float:
    """Scalar haversine distance between two (lat, lon) points, in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlmb = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def load_of_strategy(system: QuorumSystem, strategy: np.ndarray) -> float:
    """System load (max element load) induced by a global strategy."""
    p = np.asarray(strategy, dtype=np.float64)
    if p.shape != (system.num_quorums,):
        raise QuorumSystemError(
            f"strategy must have {system.num_quorums} entries, got {p.shape}"
        )
    if np.any(p < -1e-12) or not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise QuorumSystemError("strategy must be a probability distribution")
    return float(system.element_loads(p).max())


def validate_metric(topology: Topology, tolerance: float = 1e-9) -> None:
    """Raise :class:`TopologyError` if the RTTs violate the metric axioms."""
    m = topology.rtt
    if np.any(np.diag(m) != 0):
        raise TopologyError("metric has non-zero self distance")
    if not np.allclose(m, m.T, atol=tolerance):
        raise TopologyError("metric is not symmetric")
    for k in range(topology.n_nodes):
        via_k = m[:, k][:, None] + m[k, :][None, :]
        if np.any(m > via_k + tolerance):
            raise TopologyError(
                f"triangle inequality violated through node {k}"
            )
