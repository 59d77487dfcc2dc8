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

The matrix is built in place, :data:`_BLOCK_ROWS` rows at a time, so the
only full n x n array is the result. A first pass writes each block's
``propagation * inflation`` on its upper triangle, with the inflation rows
drawn from the generator in the order a whole ``(n, n)`` draw would take
them; a second pass draws the jitter rows the same way, adds access delay
and jitter, clamps, and averages each ``(i, j)`` with ``(j, i)`` exactly as
:class:`~repro.network.graph.Topology` symmetrizes, mirroring the result
into the lower triangle. The great-circle term is evaluated only on the
upper triangle: the whole-matrix formula is exactly symmetric. Every byte
equals the whole-matrix construction, which ``tests/oracles.py`` keeps as
the reference. On a 2-core x86-64 host, ``synthetic_wan(2000)`` takes
about 0.3 s instead of 0.6 s, with a tracemalloc peak of 1.4 matrices
instead of 6.0, and ``synthetic_wan(5000)`` peaks at 291 MB of RSS instead
of 1250 MB.
"""

from __future__ import annotations

import math
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

#: Rows of the RTT matrix built per step. Every temporary is at most a
#: (_BLOCK_ROWS, n) slab, so generation holds one n x n matrix plus a few
#: slabs whatever n is.
_BLOCK_ROWS = 128


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
        if not (math.isfinite(self.spread_deg) and self.spread_deg >= 0):
            raise TopologyError(
                "cluster spread must be finite and non-negative, "
                f"got {self.spread_deg}"
            )
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise TopologyError(
                f"cluster weight must be finite and positive, got {self.weight}"
            )


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
    if not all(math.isfinite(x) for x in raw):
        raise TopologyError(
            f"cluster weights summing to {total} overflow the "
            f"apportionment of {n_sites} sites; scale them down"
        )
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

    Off-diagonal RTTs are clamped below at :data:`MIN_RTT_MS`. Range
    bounds and ``jitter_ms`` must be finite (a :class:`TopologyError`
    names the bad value): the closure-free result goes to
    :meth:`Topology.adopt`, which does not re-check its entries.

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
    if not (1.0 <= lo <= hi and math.isfinite(hi)):
        raise TopologyError(
            "inflation factors must be finite, >= 1 and ordered, "
            f"got {inflation_range}"
        )
    alo, ahi = access_delay_ms_range
    if not (0.0 <= alo <= ahi and math.isfinite(ahi)):
        raise TopologyError(
            "access delays must be finite, non-negative and ordered, "
            f"got {access_delay_ms_range}"
        )
    if not (math.isfinite(jitter_ms) and jitter_ms >= 0):
        raise TopologyError(
            f"jitter scale must be finite and non-negative, got {jitter_ms}"
        )

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

    rtt = np.empty((n_sites, n_sites))
    blocks = [
        (start, min(start + _BLOCK_ROWS, n_sites))
        for start in range(0, n_sites, _BLOCK_ROWS)
    ]
    # Pass 1: propagation * inflation on each block's upper triangle. The
    # inflation rows are drawn in full, in order, to keep the stream of
    # one (n, n) draw; the entry (i, j), i < j, serves both directions.
    for start, stop in blocks:
        base_rtt = propagation_rtt_ms(
            pairwise_great_circle_km(
                lats[start:stop], lons[start:stop], lats[start:], lons[start:]
            )
        )
        inflation = rng.uniform(lo, hi, size=(stop - start, n_sites))
        np.multiply(base_rtt, inflation[:, start:], out=rtt[start:stop, start:])

    access = rng.uniform(alo, ahi, size=n_sites)

    # Pass 2: add access delay and jitter in both directions, clamp each,
    # and average them as Topology's symmetrization does; then mirror.
    # Float addition is not associative, so the raw (i, j) entry,
    # ((t + a_i) + a_j) + e, and the raw (j, i) one, ((t + a_j) + a_i) + e,
    # with t the pass-1 product, are summed separately in those orders;
    # ``forward`` holds the first while the block itself becomes the second.
    for start, stop in blocks:
        jitter = rng.exponential(jitter_ms, size=(stop - start, n_sites))
        jitter = jitter[:, start:]
        access_rows = access[start:stop, None]
        access_cols = access[None, start:]
        upper = rtt[start:stop, start:]
        forward = upper + access_rows
        forward += access_cols
        forward += jitter
        np.maximum(forward, MIN_RTT_MS, out=forward)
        upper += access_cols
        upper += access_rows
        upper += jitter
        np.maximum(upper, MIN_RTT_MS, out=upper)
        upper += forward
        upper /= 2.0
        # Inside the diagonal square only the strict upper triangle is
        # an (i < j) entry; rebuild the rest from it, diagonal zero.
        square = np.triu(upper[:, : stop - start], 1)
        upper[:, : stop - start] = square + square.T
        rtt[stop:, start:stop] = upper[:, stop - start :].T

    if metric_closure:
        return Topology(rtt, names=names, metric_closure=True)
    return Topology.adopt(rtt, names, np.ones(n_sites))


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
