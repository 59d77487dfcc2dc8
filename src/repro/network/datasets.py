"""Bundled topologies standing in for the paper's measured datasets.

The paper uses two RTT datasets:

* **Planetlab-50** — ping RTTs between 50 PlanetLab sites (July-Nov 2006).
  PlanetLab in 2006 was dominated by North-American and European academic
  sites with a meaningful East-Asian contingent and a handful of sites
  elsewhere.
* **daxlist-161** — RTTs between 161 web servers estimated with the ``king``
  tool. Commercial web servers cluster even more densely in US/EU hosting
  locations.

Neither raw dataset is distributed today, so :func:`planetlab_50` and
:func:`daxlist_161` generate deterministic synthetic matrices from the
cluster model in :mod:`repro.network.generators`, with cluster weights chosen
to match those populations. Each is one fixed matrix (a fixed seed), the
canonical dataset used across figures, tests and benchmarks; so is each
multi-thousand-site scale preset.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import TopologyError
from repro.network.generators import (
    ClusterSpec,
    generate_cluster_topology,
    synthetic_wan,
)
from repro.network.graph import Topology

__all__ = [
    "planetlab_50",
    "daxlist_161",
    "wan_1000",
    "wan_2000",
    "wan_5000",
    "load_topology",
    "available_topologies",
    "topology_sites",
]

#: Continental clusters approximating the 2006 PlanetLab population.
#: Weights and the generator parameters below were calibrated so that the
#: average delay to the graph median (~64 ms) and the balanced network
#: delay of a 21-server Majority placement (~81 ms) match the scales in the
#: paper's Figures 6.3 and 3.2b.
PLANETLAB_CLUSTERS: list[ClusterSpec] = [
    ClusterSpec("us-east", 40.5, -74.5, 3.5, 0.39),
    ClusterSpec("us-central", 41.5, -93.0, 3.5, 0.10),
    ClusterSpec("us-west", 37.5, -121.5, 3.0, 0.14),
    ClusterSpec("eu-west", 50.5, 2.5, 3.5, 0.18),
    ClusterSpec("eu-central", 48.5, 11.5, 3.0, 0.10),
    ClusterSpec("asia-east", 35.5, 128.0, 4.0, 0.12),
    ClusterSpec("south-america", -23.0, -47.0, 2.5, 0.04),
    ClusterSpec("oceania", -33.5, 151.0, 2.0, 0.06),
]

#: Clusters approximating the daxlist web-server population (hosting-heavy).
#: Calibrated denser than PlanetLab — commercial web servers concentrate in
#: US hosting regions — so that Grid closest-quorum delays sit in the
#: ~30 ms range of the paper's Figures 6.4-6.5.
DAXLIST_CLUSTERS: list[ClusterSpec] = [
    ClusterSpec("us-east", 39.5, -77.0, 4.0, 0.50),
    ClusterSpec("us-central", 41.8, -88.0, 3.5, 0.15),
    ClusterSpec("us-west", 37.3, -122.0, 3.0, 0.20),
    ClusterSpec("eu-west", 51.3, -0.5, 3.0, 0.08),
    ClusterSpec("eu-central", 49.5, 8.5, 3.0, 0.03),
    ClusterSpec("asia-east", 35.0, 135.0, 4.5, 0.02),
    ClusterSpec("asia-south", 1.3, 103.8, 2.0, 0.005),
    ClusterSpec("south-america", -23.5, -46.5, 2.0, 0.005),
    ClusterSpec("oceania", -37.8, 145.0, 2.0, 0.01),
]


def planetlab_50() -> Topology:
    """Synthetic stand-in for the paper's "Planetlab-50" topology.

    50 sites drawn from :data:`PLANETLAB_CLUSTERS` (seed 2006). The average
    RTT from all sites to the graph median is in the ~55-75 ms range,
    matching the scale of the paper's singleton results (Figure 6.3).
    """
    return generate_cluster_topology(
        n_sites=50,
        clusters=PLANETLAB_CLUSTERS,
        seed=2006,
        inflation_range=(1.25, 1.9),
        access_delay_ms_range=(0.3, 2.0),
        jitter_ms=0.8,
    )


def daxlist_161() -> Topology:
    """Synthetic stand-in for the paper's "daxlist-161" topology.

    161 sites drawn from :data:`DAXLIST_CLUSTERS` (seed 161), denser in US
    hosting regions, so close quorums exist even for large universes (the
    paper reports Grid response times around 20-30 ms for small universes
    on this topology).
    """
    return generate_cluster_topology(
        n_sites=161,
        clusters=DAXLIST_CLUSTERS,
        seed=161,
        inflation_range=(1.15, 1.6),
        access_delay_ms_range=(0.2, 1.5),
        jitter_ms=0.6,
    )


def wan_1000() -> Topology:
    """1000-site scale preset (see :func:`repro.network.generators.synthetic_wan`)."""
    return synthetic_wan(1000)


def wan_2000() -> Topology:
    """2000-site scale preset — the ROADMAP's fig_7-class sweep target."""
    return synthetic_wan(2000)


def wan_5000() -> Topology:
    """5000-site scale preset (200 MB delay matrix; generate on demand)."""
    return synthetic_wan(5000)


#: name -> (site count, factory). The count is exposed without generating
#: the topology: the scale presets materialize O(n^2) matrices, so
#: listings must not have to build them just to say how big they are.
_REGISTRY: dict[str, tuple[int, Callable[[], Topology]]] = {
    "planetlab-50": (50, planetlab_50),
    "daxlist-161": (161, daxlist_161),
    "wan-1000": (1000, wan_1000),
    "wan-2000": (2000, wan_2000),
    "wan-5000": (5000, wan_5000),
}


def available_topologies() -> tuple[str, ...]:
    """Names accepted by :func:`load_topology`."""
    return tuple(sorted(_REGISTRY))


def topology_sites(name: str) -> int:
    """Site count of a bundled topology, without generating it."""
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; available: {available_topologies()}"
        ) from None


def load_topology(name: str) -> Topology:
    """Load a bundled topology by name (see :func:`available_topologies`)."""
    try:
        _, factory = _REGISTRY[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology {name!r}; available: {available_topologies()}"
        ) from None
    return factory()
