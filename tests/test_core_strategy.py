"""Tests for access strategies (explicit and implicit threshold)."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import (
    ExplicitStrategy,
    ThresholdBalancedStrategy,
    ThresholdClosestStrategy,
)
from repro.errors import StrategyError
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

from oracles import expected_max_of_random_subset


@pytest.fixture()
def grid2_placed(line_topology):
    return PlacedQuorumSystem(
        GridQuorumSystem(2), Placement([0, 1, 2, 3]), line_topology
    )


@pytest.fixture()
def maj_placed(line_topology):
    return PlacedQuorumSystem(
        ThresholdQuorumSystem(5, 3),
        Placement([0, 2, 4, 6, 8]),
        line_topology,
    )


class TestExplicitStrategy:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(StrategyError):
            ExplicitStrategy(np.full((2, 3), 0.5))

    def test_negative_rejected(self):
        m = np.array([[1.5, -0.5]])
        with pytest.raises(StrategyError):
            ExplicitStrategy(m)

    def test_one_d_rejected(self):
        with pytest.raises(StrategyError):
            ExplicitStrategy(np.array([1.0]))

    def test_matrix_read_only(self):
        s = ExplicitStrategy(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 1.0

    def test_numerical_noise_cleaned(self):
        m = np.array([[0.5 + 1e-8, 0.5 - 1e-8]])
        s = ExplicitStrategy(m)
        assert s.matrix.sum(axis=1) == pytest.approx(1.0)

    def test_uniform_constructor(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        assert s.matrix.shape == (10, 4)
        assert np.allclose(s.matrix, 0.25)

    def test_closest_constructor_is_one_hot(self, grid2_placed):
        s = ExplicitStrategy.closest(grid2_placed)
        assert np.allclose(s.matrix.sum(axis=1), 1.0)
        assert np.all(np.isin(s.matrix, [0.0, 1.0]))

    def test_closest_picks_minimum_delay(self, grid2_placed):
        s = ExplicitStrategy.closest(grid2_placed)
        delta = grid2_placed.delay_matrix
        chosen = np.argmax(s.matrix, axis=1)
        assert np.allclose(
            delta[np.arange(10), chosen], delta.min(axis=1)
        )

    def test_single_quorum_constructor(self, grid2_placed):
        s = ExplicitStrategy.single_quorum(grid2_placed, 2)
        assert np.all(s.matrix[:, 2] == 1.0)
        with pytest.raises(StrategyError):
            ExplicitStrategy.single_quorum(grid2_placed, 9)

    def test_average_strategy(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        assert np.allclose(s.average_strategy(), 0.25)

    def test_incompatible_shapes_rejected(self, grid2_placed):
        s = ExplicitStrategy(np.full((10, 5), 0.2))
        with pytest.raises(StrategyError):
            s.node_loads(grid2_placed)

    def test_response_times_weighted_sum(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        clients = np.arange(10)
        resp = s.expected_response_times(
            grid2_placed, np.zeros(10), clients
        )
        manual = grid2_placed.delay_matrix.mean(axis=1)
        assert np.allclose(resp, manual)


class TestThresholdClosest:
    def test_requires_threshold_system(self, grid2_placed):
        with pytest.raises(StrategyError):
            ThresholdClosestStrategy().node_loads(grid2_placed)

    def test_requires_one_to_one(self, line_topology):
        placed = PlacedQuorumSystem(
            ThresholdQuorumSystem(3, 2),
            Placement([0, 0, 1]),
            line_topology,
        )
        with pytest.raises(StrategyError):
            ThresholdClosestStrategy().node_loads(placed)

    def test_delay_is_qth_smallest_distance(self, maj_placed):
        s = ThresholdClosestStrategy()
        resp = s.expected_response_times(
            maj_placed, np.zeros(10), np.array([0])
        )
        # Support at nodes 0,2,4,6,8; from client 0 the 3 closest are
        # 0, 2, 4 -> delay = 40 ms.
        assert resp[0] == pytest.approx(40.0)

    def test_loads_average_to_q_over_support(self, maj_placed):
        loads = ThresholdClosestStrategy().node_loads(maj_placed)
        # Each client selects exactly q=3 support nodes.
        assert loads.sum() == pytest.approx(3.0)
        assert np.all(loads[maj_placed.placement.support_set] >= 0.0)

    def test_closest_nodes_loaded_more(self, maj_placed):
        loads = ThresholdClosestStrategy().node_loads(maj_placed)
        # Central support node 4 is in more clients' closest quorums than
        # the extremes.
        assert loads[4] >= loads[0]
        assert loads[4] >= loads[8]


class TestThresholdBalanced:
    def test_loads_are_q_over_n(self, maj_placed):
        loads = ThresholdBalancedStrategy().node_loads(maj_placed)
        assert np.allclose(loads[maj_placed.placement.support_set], 3 / 5)
        mask = np.ones(10, dtype=bool)
        mask[maj_placed.placement.support_set] = False
        assert np.allclose(loads[mask], 0.0)

    def test_expected_delay_matches_order_stats(self, maj_placed):
        s = ThresholdBalancedStrategy()
        resp = s.expected_response_times(
            maj_placed, np.zeros(10), np.array([0, 9])
        )
        for idx, v in enumerate([0, 9]):
            dists = maj_placed.topology.rtt[
                v, maj_placed.placement.support_set
            ]
            assert resp[idx] == pytest.approx(
                expected_max_of_random_subset(dists, 3)
            )

    def test_balanced_at_least_closest(self, maj_placed):
        closest = ThresholdClosestStrategy().expected_response_times(
            maj_placed, np.zeros(10), np.arange(10)
        )
        balanced = ThresholdBalancedStrategy().expected_response_times(
            maj_placed, np.zeros(10), np.arange(10)
        )
        assert np.all(balanced >= closest - 1e-9)

    def test_node_costs_shift_expectation(self, maj_placed):
        s = ThresholdBalancedStrategy()
        base = s.expected_response_times(
            maj_placed, np.zeros(10), np.arange(10)
        )
        costs = np.zeros(10)
        costs[maj_placed.placement.support_set] = 5.0
        shifted = s.expected_response_times(
            maj_placed, costs, np.arange(10)
        )
        # Equal cost on every support node adds exactly 5 ms.
        assert np.allclose(shifted, base + 5.0)
