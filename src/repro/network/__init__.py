"""Wide-area network model: topologies, generators, bundled datasets.

The algorithms in this library consume a :class:`~repro.network.graph.Topology`,
which wraps a round-trip-time (RTT) matrix between wide-area sites. Topologies
can be generated synthetically (:mod:`repro.network.generators`) or obtained
from the bundled datasets that stand in for the paper's measured Planetlab-50
and daxlist-161 matrices (:mod:`repro.network.datasets`).
"""

from repro.network.graph import Topology
from repro.network.generators import ClusterSpec, generate_cluster_topology
from repro.network.datasets import (
    available_topologies,
    daxlist_161,
    load_topology,
    planetlab_50,
)

__all__ = [
    "Topology",
    "ClusterSpec",
    "generate_cluster_topology",
    "planetlab_50",
    "daxlist_161",
    "load_topology",
    "available_topologies",
]
