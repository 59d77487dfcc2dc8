"""Synthetic wide-area topology generation.

The paper evaluates on two measured RTT datasets (Planetlab-50 and
daxlist-161) that are no longer distributed. We substitute a deterministic
*geographic cluster model*: sites are sampled around continental cluster
centres, and the RTT between two sites is

``rtt = propagation(great-circle) * inflation + access_i + access_j + jitter``

where ``inflation`` models Internet path stretch (routes are not geodesics),
``access`` models per-site last-mile/processing delay, and ``jitter`` adds
measurement noise. The result reproduces the qualitative structure that
drives every experiment in the paper: dense clusters of nearby sites,
inter-continent distances an order of magnitude larger, and a true metric
after closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.network.geo import pairwise_great_circle_km, propagation_rtt_ms
from repro.network.graph import Topology

__all__ = [
    "ClusterSpec",
    "MIN_RTT_MS",
    "WAN_CLUSTERS",
    "generate_cluster_topology",
    "synthetic_wan",
]

#: Lower clamp for generated off-diagonal RTTs (ms).
MIN_RTT_MS = 0.5


@dataclass(frozen=True)
class ClusterSpec:
    """A geographic cluster of sites.

    Parameters
    ----------
    name:
        Label used in generated site names (e.g. ``us-east``).
    lat, lon:
        Cluster centre in degrees.
    spread_deg:
        Standard deviation, in degrees, of site positions around the centre.
    weight:
        Relative share of sites assigned to this cluster.
    """

    name: str
    lat: float
    lon: float
    spread_deg: float
    weight: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise TopologyError(f"cluster latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise TopologyError(f"cluster longitude out of range: {self.lon}")
        if self.spread_deg < 0:
            raise TopologyError("cluster spread must be non-negative")
        if self.weight <= 0:
            raise TopologyError("cluster weight must be positive")


def _allocate_sites(
    clusters: list[ClusterSpec], n_sites: int
) -> list[int]:
    """Split ``n_sites`` across clusters proportionally to their weights.

    Largest-remainder apportionment; every cluster receives at least one
    site. Remainder ties break toward the lower-index cluster (Python's
    sort is stable), so the split is a pure function of the inputs.
    Fewer sites than clusters would silently leave clusters empty —
    contradicting the spec that names them — so that raises instead.
    """
    if n_sites < len(clusters):
        raise TopologyError(
            f"cannot allocate {n_sites} site(s) across "
            f"{len(clusters)} clusters; every cluster needs at least one "
            "site — drop clusters or raise n_sites"
        )
    total = sum(c.weight for c in clusters)
    raw = [n_sites * c.weight / total for c in clusters]
    counts = [int(x) for x in raw]
    remainders = [x - int(x) for x in raw]
    shortfall = n_sites - sum(counts)
    for i in sorted(
        range(len(clusters)), key=lambda i: remainders[i], reverse=True
    )[:shortfall]:
        counts[i] += 1
    # Ensure no cluster is empty: steal from the largest cluster.
    for i, count in enumerate(counts):
        if count == 0:
            donor = max(range(len(counts)), key=lambda j: counts[j])
            counts[donor] -= 1
            counts[i] += 1
    return counts


def generate_cluster_topology(
    n_sites: int,
    clusters: list[ClusterSpec],
    seed: int,
    inflation_range: tuple[float, float] = (1.3, 2.2),
    access_delay_ms_range: tuple[float, float] = (0.3, 3.0),
    jitter_ms: float = 1.0,
    metric_closure: bool = True,
) -> Topology:
    """Generate a deterministic synthetic wide-area topology.

    Parameters
    ----------
    n_sites:
        Number of wide-area sites.
    clusters:
        Geographic clusters with relative weights.
    seed:
        Seed for the random generator; identical inputs yield identical
        topologies.
    inflation_range:
        Uniform range of per-pair path-inflation factors (Internet paths
        exceed geodesics by 1.3x-2.2x in measurement studies).
    access_delay_ms_range:
        Uniform range of per-site access delay added to both ends.
    jitter_ms:
        Scale of per-pair exponential measurement noise.
    metric_closure:
        Whether to apply the all-pairs shortest-path closure. The closure
        is O(n^3) — fine for the paper-scale datasets, prohibitive for
        multi-thousand-site topologies, where the scale presets disable
        it (the raw cluster-model RTTs are near-metric already; only the
        approximation-factor proofs need an exact metric).

    Off-diagonal RTTs are clamped below at :data:`MIN_RTT_MS`.

    Returns
    -------
    Topology
        A metric-closed topology whose node names encode cluster membership.
    """
    if n_sites < 1:
        raise TopologyError("n_sites must be at least 1")
    if not clusters:
        raise TopologyError("at least one cluster is required")
    lo, hi = inflation_range
    if not 1.0 <= lo <= hi:
        raise TopologyError("inflation factors must be >= 1 and ordered")
    alo, ahi = access_delay_ms_range
    if not 0.0 <= alo <= ahi:
        raise TopologyError("access delays must be non-negative and ordered")

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

    geodesic = pairwise_great_circle_km(lats, lons)
    base_rtt = propagation_rtt_ms(geodesic)

    inflation = rng.uniform(lo, hi, size=(n_sites, n_sites))
    inflation = np.triu(inflation, 1)
    inflation = inflation + inflation.T

    access = rng.uniform(alo, ahi, size=n_sites)
    jitter = rng.exponential(jitter_ms, size=(n_sites, n_sites))
    jitter = np.triu(jitter, 1)
    jitter = jitter + jitter.T

    rtt = base_rtt * inflation + access[:, None] + access[None, :] + jitter
    rtt = np.maximum(rtt, MIN_RTT_MS)
    np.fill_diagonal(rtt, 0.0)

    return Topology(rtt, names=names, metric_closure=metric_closure)


#: Global metro clusters for the scale presets: the continental mix of
#: PLANETLAB_CLUSTERS widened to the hosting regions real multi-thousand
#: site deployments draw candidates from (more metros, heavier tails).
WAN_CLUSTERS: list[ClusterSpec] = [
    ClusterSpec("us-east", 39.0, -77.5, 3.0, 0.16),
    ClusterSpec("us-central", 41.9, -87.9, 3.0, 0.08),
    ClusterSpec("us-west", 37.4, -122.0, 3.0, 0.12),
    ClusterSpec("brazil", -23.5, -46.6, 2.5, 0.04),
    ClusterSpec("eu-west", 51.5, -0.1, 3.0, 0.12),
    ClusterSpec("eu-central", 50.1, 8.7, 3.0, 0.10),
    ClusterSpec("eu-north", 59.3, 18.1, 2.5, 0.03),
    ClusterSpec("india", 19.1, 72.9, 3.0, 0.06),
    ClusterSpec("asia-se", 1.3, 103.8, 2.5, 0.06),
    ClusterSpec("asia-east", 35.7, 139.7, 3.5, 0.10),
    ClusterSpec("asia-ne", 37.6, 126.9, 2.0, 0.04),
    ClusterSpec("oceania", -33.9, 151.2, 2.5, 0.04),
    ClusterSpec("africa-south", -26.2, 28.0, 2.0, 0.03),
    ClusterSpec("middle-east", 25.2, 55.3, 2.0, 0.02),
]


def synthetic_wan(n_sites: int) -> Topology:
    """A large synthetic WAN drawn from :data:`WAN_CLUSTERS`.

    The scale counterpart of the bundled paper datasets: same cluster
    model, more metros, and **no metric closure** — the O(n^3) closure is
    what makes paper-scale generation cheap and 5000-site generation
    impossible, and the placement algorithms only read distances. The
    seed, ``10_000 + n_sites``, is derived from the size, so each preset
    size is one canonical topology (``synthetic_wan(2000)`` is always the
    same matrix).
    """
    return generate_cluster_topology(
        n_sites=n_sites,
        clusters=WAN_CLUSTERS,
        seed=10_000 + n_sites,
        inflation_range=(1.25, 1.9),
        access_delay_ms_range=(0.3, 2.0),
        jitter_ms=0.8,
        metric_closure=False,
    )
