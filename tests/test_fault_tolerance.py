"""Tests for placement-aware fault-tolerance analysis."""

import numpy as np

from repro.analysis.fault_tolerance import (
    crash_tolerance,
    min_nodes_to_disable,
)
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestThresholdTolerance:
    def test_one_to_one_formula(self, line_topology):
        """One-to-one threshold: kill n - q + 1 nodes."""
        qs = ThresholdQuorumSystem(5, 3)
        placed = PlacedQuorumSystem(
            qs, Placement([0, 1, 2, 3, 4]), line_topology
        )
        assert min_nodes_to_disable(placed) == 3  # 5 - 3 + 1
        assert crash_tolerance(placed) == 2

    def test_colocation_reduces_tolerance(self, line_topology):
        qs = ThresholdQuorumSystem(5, 3)
        # Three elements on node 0: killing it removes 3 >= n-q+1 = 3.
        placed = PlacedQuorumSystem(
            qs, Placement([0, 0, 0, 1, 2]), line_topology
        )
        assert min_nodes_to_disable(placed) == 1
        assert crash_tolerance(placed) == 0

    def test_partial_colocation(self, line_topology):
        qs = ThresholdQuorumSystem(5, 3)
        # Pairs on nodes 0 and 1; need to remove 3 elements -> 2 nodes.
        placed = PlacedQuorumSystem(
            qs, Placement([0, 0, 1, 1, 2]), line_topology
        )
        assert min_nodes_to_disable(placed) == 2

    def test_qu_majority_tolerance(self, planetlab):
        """Q/U's (4t+1, 5t+1): one-to-one tolerates t crashes... and more:
        quorums need only q of n alive, so t+1 crash kills no quorum until
        n - q + 1 = t + 1 nodes die."""
        qs = ThresholdQuorumSystem(21, 17)  # t = 4
        placed = PlacedQuorumSystem(
            qs, Placement(np.arange(21)), planetlab
        )
        assert min_nodes_to_disable(placed) == 5  # t + 1


class TestGridTolerance:
    def test_one_to_one_grid_is_k(self, planetlab):
        g = GridQuorumSystem(3)
        placed = PlacedQuorumSystem(
            g, Placement(np.arange(9)), planetlab
        )
        # Break one node per row (or per column): k nodes.
        assert min_nodes_to_disable(placed) == 3

    def test_column_colocation(self, line_topology):
        g = GridQuorumSystem(2)
        # Place each grid *column* on one node: killing one node breaks
        # every row, so all quorums die with... one node kills one element
        # of each row -> breaks both rows -> 1 node suffices.
        placement = Placement([0, 1, 0, 1])  # (r,c) -> node c
        placed = PlacedQuorumSystem(g, placement, line_topology)
        assert min_nodes_to_disable(placed) == 1

    def test_all_on_one_node(self, line_topology):
        g = GridQuorumSystem(3)
        placed = PlacedQuorumSystem(
            g, Placement([4] * 9), line_topology
        )
        assert min_nodes_to_disable(placed) == 1


class TestGenericTolerance:
    def test_star_system(self, line_topology):
        # Element 0 in every quorum: killing its node disables everything.
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({0, 2})], name="star"
        )
        placed = PlacedQuorumSystem(
            qs, Placement([5, 6, 7]), line_topology
        )
        assert min_nodes_to_disable(placed) == 1

    def test_triangle_system(self, line_topology):
        # Quorums {0,1},{1,2},{0,2}: any two nodes hit all three quorums;
        # no single node does.
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
            name="triangle",
        )
        placed = PlacedQuorumSystem(
            qs, Placement([1, 2, 3]), line_topology
        )
        assert min_nodes_to_disable(placed) == 2

    def test_one_to_one_beats_many_to_one(self, planetlab):
        """The paper's fault-tolerance argument, quantified."""
        g = GridQuorumSystem(3)
        one_to_one = PlacedQuorumSystem(
            g, Placement(np.arange(9)), planetlab
        )
        collapsed = PlacedQuorumSystem(
            g, Placement(np.arange(9) % 3), planetlab
        )
        assert min_nodes_to_disable(one_to_one) > min_nodes_to_disable(
            collapsed
        )
