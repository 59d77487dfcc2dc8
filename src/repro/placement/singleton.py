"""The singleton placement (Section 4.1.2).

All universe elements are placed on the single node minimizing the sum of
distances from all clients — the *median* of the graph, every node being a
client. Lin showed the singleton is a 2-approximation for minimizing average
network delay over all quorum systems and placements, which makes it the
natural performance floor in Figure 6.3.
"""

from __future__ import annotations

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.network.graph import Topology
from repro.quorums.singleton import SingletonQuorumSystem

__all__ = ["singleton_placement"]


def singleton_placement(topology: Topology) -> PlacedQuorumSystem:
    """The singleton quorum system placed on the graph median."""
    median = topology.median()
    system = SingletonQuorumSystem()
    return PlacedQuorumSystem(system, Placement([median]), topology)
