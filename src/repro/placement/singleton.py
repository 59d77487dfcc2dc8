"""The singleton placement (Section 4.1.2).

All universe elements are placed on the single node minimizing the sum of
distances from all clients — the *median* of the graph when every node is a
client. Lin showed the singleton is a 2-approximation for minimizing average
network delay over all quorum systems and placements, which makes it the
natural performance floor in Figure 6.3.
"""

from __future__ import annotations

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.network.graph import Topology
from repro.quorums.singleton import SingletonQuorumSystem

__all__ = ["singleton_placement"]


def singleton_placement(
    topology: Topology, clients: object = None
) -> PlacedQuorumSystem:
    """The singleton quorum system placed on the graph median."""
    median = topology.median(clients)
    system = SingletonQuorumSystem()
    return PlacedQuorumSystem(system, Placement([median]), topology)
