"""Tests for Placement and PlacedQuorumSystem."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ExplicitStrategy
from repro.errors import PlacementError
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestPlacement:
    def test_basic(self):
        p = Placement([3, 1, 4])
        assert p.universe_size == 3
        assert p.node_of(0) == 3
        assert list(p.support_set) == [1, 3, 4]
        assert p.is_one_to_one

    def test_many_to_one(self):
        p = Placement([2, 2, 5])
        assert not p.is_one_to_one
        assert list(p.support_set) == [2, 5]
        assert list(p.elements_on(2)) == [0, 1]

    def test_multiplicities(self):
        p = Placement([2, 2, 5])
        assert list(p.multiplicities(7)) == [0, 0, 2, 0, 0, 1, 0]

    def test_equality_and_hash(self):
        assert Placement([1, 2]) == Placement([1, 2])
        assert Placement([1, 2]) != Placement([2, 1])
        assert hash(Placement([1, 2])) == hash(Placement([1, 2]))

    def test_negative_node_rejected(self):
        with pytest.raises(PlacementError):
            Placement([0, -1])

    def test_empty_rejected(self):
        with pytest.raises(PlacementError):
            Placement([])

    def test_assignment_read_only(self):
        p = Placement([1, 2])
        with pytest.raises(ValueError):
            p.assignment[0] = 9

    def test_validate_for_universe_mismatch(self, line_topology):
        grid = GridQuorumSystem(2)
        with pytest.raises(PlacementError):
            Placement([0, 1, 2]).validate_for(grid, line_topology)

    def test_validate_for_node_out_of_range(self, line_topology):
        grid = GridQuorumSystem(2)
        with pytest.raises(PlacementError):
            Placement([0, 1, 2, 99]).validate_for(grid, line_topology)


class TestPlacedQuorumSystem:
    def test_placed_quorums_dedupe_nodes(self, line_topology):
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([0, 0, 1, 2]), line_topology
        )
        # Quorum (0,0) = {e0, e1, e2}; nodes {0, 0, 1} dedupe to {0, 1}.
        assert set(placed.placed_quorums[0]) == {0, 1}

    def test_delay_matrix_values(self, line_topology):
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([0, 1, 2, 3]), line_topology
        )
        # Quorum (0,0) = elements {0,1,2} -> nodes {0,1,2}; from client 9
        # the farthest is node 0 at 90 ms.
        i = 0
        assert placed.delay_matrix[9, i] == pytest.approx(90.0)
        # From client 0 the farthest of nodes {0,1,2} is node 2 at 20 ms.
        assert placed.delay_matrix[0, i] == pytest.approx(20.0)

    def test_quorum_delay_matches_matrix(self, line_topology):
        grid = GridQuorumSystem(3)
        placed = PlacedQuorumSystem(
            grid, Placement(list(range(9))), line_topology
        )
        for v in (0, 4, 9):
            for i in (0, 4, 8):
                assert placed.quorum_delay(v, i) == pytest.approx(
                    placed.delay_matrix[v, i]
                )

    def test_incidence_counts_multiplicity(self, line_topology):
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([5, 5, 5, 6]), line_topology
        )
        # Quorum (0,0) = {e0,e1,e2}, all on node 5 -> count 3.
        assert placed.incidence_counts[0, 5] == 3.0

    def test_augmented_delay_adds_node_costs(self, line_topology):
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([0, 1, 2, 3]), line_topology
        )
        costs = np.zeros(10)
        costs[0] = 1000.0
        rho = placed.augmented_delay_matrix(costs)
        # Every quorum containing element 0 (node 0) now costs > 1000.
        assert rho[0, 0] >= 1000.0

    def test_augmented_delay_shape_check(self, line_topology):
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([0, 1, 2, 3]), line_topology
        )
        with pytest.raises(PlacementError):
            placed.augmented_delay_matrix(np.zeros(3))

    def test_zero_cost_response_shape_check(self, line_topology):
        # Zero costs reuse the cached delay matrix; validation still runs.
        grid = GridQuorumSystem(2)
        placed = PlacedQuorumSystem(
            grid, Placement([0, 1, 2, 3]), line_topology
        )
        strategy = ExplicitStrategy.uniform(placed)
        with pytest.raises(PlacementError):
            strategy.expected_response_times(
                placed, np.zeros(3), np.arange(placed.n_nodes)
            )

    def test_is_threshold_flag(self, line_topology):
        maj = ThresholdQuorumSystem(3, 2)
        placed = PlacedQuorumSystem(
            maj, Placement([0, 1, 2]), line_topology
        )
        assert placed.is_threshold
        grid_placed = PlacedQuorumSystem(
            GridQuorumSystem(2), Placement([0, 1, 2, 3]), line_topology
        )
        assert not grid_placed.is_threshold

    def test_support_distances(self, line_topology):
        maj = ThresholdQuorumSystem(3, 2)
        placed = PlacedQuorumSystem(
            maj, Placement([2, 4, 6]), line_topology
        )
        d = placed.support_distances
        assert d.shape == (10, 3)
        assert d[0, 0] == pytest.approx(20.0)
        assert d[0, 2] == pytest.approx(60.0)
