"""Reference implementations that tests compare the library against.

Each is the plain form of something the library computes in a vectorized,
blocked or closed form: a loop over entries, or one whole-matrix
expression where the library works a block at a time. None of them is on
any library code path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import QuorumSystemError, TopologyError
from repro.network.generators import (
    MIN_RTT_MS,
    ClusterSpec,
    _allocate_sites,
)
from repro.network.geo import EARTH_RADIUS_KM, propagation_rtt_ms
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


def whole_matrix_great_circle_km(
    lats: np.ndarray, lons: np.ndarray
) -> np.ndarray:
    """Square pairwise great-circle matrix, in km, in one expression."""
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    lmb = np.radians(np.asarray(lons, dtype=np.float64))
    dphi = phi[:, None] - phi[None, :]
    dlmb = lmb[:, None] - lmb[None, :]
    a = (
        np.sin(dphi / 2.0) ** 2
        + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlmb / 2.0) ** 2
    )
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def whole_matrix_cluster_topology(
    n_sites: int,
    clusters: list[ClusterSpec],
    seed: int,
    inflation_range: tuple[float, float] = (1.3, 2.2),
    access_delay_ms_range: tuple[float, float] = (0.3, 3.0),
    jitter_ms: float = 1.0,
    metric_closure: bool = True,
) -> Topology:
    """``generate_cluster_topology`` as whole (n, n) array expressions.

    Draws the full inflation and jitter matrices, keeps their upper
    triangles, and lets :class:`Topology` symmetrize the raw matrix. It
    holds about six n x n arrays at once; the library builds the same
    bytes a block of rows at a time.
    """
    rng = np.random.default_rng(seed)
    counts = _allocate_sites(clusters, n_sites)
    lats = np.empty(n_sites)
    lons = np.empty(n_sites)
    names: list[str] = []
    pos = 0
    for cluster, count in zip(clusters, counts):
        lats[pos : pos + count] = rng.normal(
            cluster.lat, cluster.spread_deg, size=count
        )
        lons[pos : pos + count] = rng.normal(
            cluster.lon, cluster.spread_deg, size=count
        )
        names.extend(f"{cluster.name}-{i}" for i in range(count))
        pos += count
    lats = np.clip(lats, -89.9, 89.9)
    lons = (lons + 180.0) % 360.0 - 180.0

    base_rtt = propagation_rtt_ms(whole_matrix_great_circle_km(lats, lons))
    lo, hi = inflation_range
    inflation = rng.uniform(lo, hi, size=(n_sites, n_sites))
    inflation = np.triu(inflation, 1)
    inflation = inflation + inflation.T
    alo, ahi = access_delay_ms_range
    access = rng.uniform(alo, ahi, size=n_sites)
    jitter = rng.exponential(jitter_ms, size=(n_sites, n_sites))
    jitter = np.triu(jitter, 1)
    jitter = jitter + jitter.T

    rtt = base_rtt * inflation + access[:, None] + access[None, :] + jitter
    rtt = np.maximum(rtt, MIN_RTT_MS)
    np.fill_diagonal(rtt, 0.0)
    return Topology(rtt, names=names, metric_closure=metric_closure)


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
