"""Tests for one-to-one placement constructions and the best-v0 search."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import average_network_delay
from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.placement.one_to_one import (
    grid_onion_placement,
    majority_ball_placement,
    one_to_one_placement,
)
from repro.placement.search import best_placement, uniform_strategy_for
from repro.placement.singleton import singleton_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestMajorityBall:
    def test_support_is_ball(self, line_topology):
        maj = ThresholdQuorumSystem(5, 3)
        placement = majority_ball_placement(line_topology, maj, v0=0)
        assert sorted(placement.assignment) == [0, 1, 2, 3, 4]
        assert placement.is_one_to_one

    def test_interior_ball(self, line_topology):
        maj = ThresholdQuorumSystem(3, 2)
        placement = majority_ball_placement(line_topology, maj, v0=5)
        assert 5 in placement.assignment
        assert len(placement.assignment) == 3

    def test_capacity_filter(self, line_topology):
        # Nodes 1 and 2 too small to host load q/n = 0.6.
        caps = np.ones(10)
        caps[1] = caps[2] = 0.1
        topo = line_topology.with_capacities(caps)
        maj = ThresholdQuorumSystem(5, 3)
        placement = majority_ball_placement(topo, maj, v0=0)
        assert 1 not in placement.assignment
        assert 2 not in placement.assignment

    def test_under_capacity_v0_hosts_nothing(self, line_topology):
        """Section 4.1.1's bound holds for ``v0`` too: an under-capacity
        designated client is skipped, its nearest eligible nodes host."""
        caps = np.ones(10)
        caps[0] = 0.1
        topo = line_topology.with_capacities(caps)
        placement = majority_ball_placement(
            topo, ThresholdQuorumSystem(5, 3), v0=0
        )
        assert sorted(placement.assignment) == [1, 2, 3, 4, 5]

    def test_universe_too_large(self, line_topology):
        maj = ThresholdQuorumSystem(11, 6)
        with pytest.raises(PlacementError):
            majority_ball_placement(line_topology, maj, v0=0)

    def test_wrong_system_type(self, line_topology):
        with pytest.raises(PlacementError):
            majority_ball_placement(
                line_topology, GridQuorumSystem(2), v0=0
            )


class TestGridOnion:
    def test_support_is_ball(self, line_topology):
        grid = GridQuorumSystem(3)
        placement = grid_onion_placement(line_topology, grid, v0=0)
        assert sorted(placement.assignment) == list(range(9))
        assert placement.is_one_to_one

    def test_farthest_node_in_top_left(self, line_topology):
        grid = GridQuorumSystem(3)
        placement = grid_onion_placement(line_topology, grid, v0=0)
        # Ball of 9 around node 0 = nodes 0..8; farthest is node 8.
        assert placement.node_of(grid.element(0, 0)) == 8

    def test_last_row_and_column_are_nearest(self, line_topology):
        grid = GridQuorumSystem(3)
        placement = grid_onion_placement(line_topology, grid, v0=0)
        k = 3
        closing_cells = [grid.element(k - 1, c) for c in range(k)] + [
            grid.element(r, k - 1) for r in range(k - 1)
        ]
        closing_nodes = {placement.node_of(e) for e in closing_cells}
        # The closest quorum (row k-1 + col k-1) holds the 2k-1 nearest.
        assert closing_nodes == {0, 1, 2, 3, 4}

    def test_onion_optimal_for_v0_closest_quorum(self, line_topology):
        """For v0, the onion's closest quorum delay beats (or ties) 200
        random one-to-one placements onto the same ball."""
        grid = GridQuorumSystem(3)
        placement = grid_onion_placement(line_topology, grid, v0=0)
        placed = PlacedQuorumSystem(grid, placement, line_topology)
        onion_delay = placed.delay_matrix[0].min()
        rng = np.random.default_rng(0)
        ball = np.arange(9)
        for _ in range(200):
            perm = rng.permutation(ball)
            other = PlacedQuorumSystem(
                grid,
                type(placement)(perm),
                line_topology,
            )
            assert onion_delay <= other.delay_matrix[0].min() + 1e-9

    def test_wrong_system_type(self, line_topology):
        maj = ThresholdQuorumSystem(3, 2)
        with pytest.raises(PlacementError):
            grid_onion_placement(line_topology, maj, v0=0)

    def test_under_capacity_v0_hosts_nothing(self, line_topology):
        caps = np.ones(10)
        caps[0] = 0.5  # below the Grid 2x2 uniform load 3/4
        topo = line_topology.with_capacities(caps)
        placement = grid_onion_placement(topo, GridQuorumSystem(2), v0=0)
        assert sorted(placement.assignment) == [1, 2, 3, 4]
        # Farthest ball node in the top-left cell, as always.
        assert placement.node_of(0) == 4


class TestDispatch:
    def test_one_to_one_dispatch(self, line_topology):
        assert one_to_one_placement(
            line_topology, GridQuorumSystem(2), 0
        ).universe_size == 4
        assert one_to_one_placement(
            line_topology, ThresholdQuorumSystem(3, 2), 0
        ).universe_size == 3
        sing = one_to_one_placement(
            line_topology, SingletonQuorumSystem(), 7
        )
        assert sing.node_of(0) == 7


class TestBestPlacementSearch:
    def test_grid_on_clustered_topology_prefers_big_cluster(
        self, clustered_topology
    ):
        grid = GridQuorumSystem(2)
        result = best_placement(clustered_topology, grid)
        # A 4-element grid fits entirely inside one 6-node cluster; any
        # cross-cluster placement pays ~100ms, so support stays clustered.
        support = result.placed.placement.support_set
        assert (support < 6).all() or (support >= 6).all()

    def test_best_delay_is_minimum_over_candidates(self, line_topology):
        maj = ThresholdQuorumSystem(5, 3)
        result = best_placement(line_topology, maj)
        assert result.avg_network_delay == pytest.approx(
            min(result.delays_by_candidate.values())
        )
        assert result.v0 in result.delays_by_candidate

    def test_candidate_subset(self, line_topology):
        maj = ThresholdQuorumSystem(3, 2)
        result = best_placement(line_topology, maj, candidates=[0, 9])
        assert set(result.delays_by_candidate) == {0, 9}

    def test_search_beats_worst_candidate(self, planetlab):
        grid = GridQuorumSystem(3)
        result = best_placement(planetlab, grid)
        worst = max(result.delays_by_candidate.values())
        assert result.avg_network_delay < worst

    def test_reported_delay_matches_reevaluation(self, line_topology):
        grid = GridQuorumSystem(2)
        result = best_placement(line_topology, grid)
        again = average_network_delay(
            result.placed, uniform_strategy_for(result.placed)
        )
        assert result.avg_network_delay == pytest.approx(again)

    def test_empty_candidates_rejected(self, line_topology):
        with pytest.raises(PlacementError):
            best_placement(
                line_topology, GridQuorumSystem(2), candidates=[]
            )

    @pytest.mark.parametrize(
        "candidates, message",
        [
            ([-1, 3], "must lie in"),
            ([3, 50], "must lie in"),
            ([1.7, 3], "must be integers"),
            ([True, False], "must be integers"),
            ([[1, 2]], "must be 1-D"),
            ([[1, 2], [3]], "not an array"),
        ],
    )
    def test_invalid_candidate_ids_rejected(
        self, planetlab, candidates, message
    ):
        """Negative, out-of-range, non-integer and nested ids are errors,
        not silently dropped, truncated or wrapped candidates."""
        with pytest.raises(PlacementError, match=message):
            best_placement(
                planetlab, ThresholdQuorumSystem(5, 3), candidates=candidates
            )


class TestCapacityConstraint:
    """``cap(v) >= load_f(u)`` for every hosting node, ``v0`` included
    (planetlab-50 with nodes 10-49 below the Grid 3x3 load 5/9)."""

    @pytest.fixture(scope="class")
    def starved(self, planetlab):
        caps = np.ones(planetlab.n_nodes)
        caps[10:] = 0.1
        return planetlab.with_capacities(caps)

    def test_search_hosts_only_on_eligible_nodes(self, starved):
        grid = GridQuorumSystem(3)
        result = best_placement(starved, grid)
        assert set(result.placed.placement.assignment) <= set(range(10))
        for v0 in range(10, starved.n_nodes):
            placement = one_to_one_placement(starved, grid, v0)
            assert v0 not in placement.assignment

    def test_too_few_eligible_nodes_fail_up_front(self, starved):
        caps = starved.capacities.copy()
        caps[3:] = 0.1
        with pytest.raises(PlacementError, match="only 3 of 50 nodes"):
            best_placement(
                starved.with_capacities(caps), GridQuorumSystem(3)
            )

    def test_universe_larger_than_topology(self, line_topology):
        """Too few nodes is reported as such, not as a capacity shortage."""
        with pytest.raises(
            PlacementError,
            match="11 elements but the topology has only 10 nodes",
        ):
            best_placement(line_topology, ThresholdQuorumSystem(11, 6))

    def test_grid_larger_than_topology(self, planetlab):
        with pytest.raises(
            PlacementError,
            match="^Grid 8x8 has 64 elements but the topology has only "
            "50 nodes$",
        ):
            best_placement(planetlab, GridQuorumSystem(8))

    def test_disconnected_topology_rejected(self):
        """Under metric closure a zero RTT is a missing link; two components
        leave every candidate an infinite average delay."""
        rtt = np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=np.float64,
        )
        with pytest.raises(PlacementError, match="finite delay"):
            best_placement(Topology(rtt), SingletonQuorumSystem())

    def test_singleton_keeps_hosting_on_v0(self, starved):
        result = best_placement(starved, SingletonQuorumSystem())
        assert result.placed.placement.node_of(0) == result.v0
        assert set(result.delays_by_candidate) == set(range(50))


class TestSingletonPlacement:
    def test_singleton_on_median(self, line_topology):
        placed = singleton_placement(line_topology)
        assert placed.placement.node_of(0) == line_topology.median()

    def test_singleton_beats_spread_grid(self, planetlab):
        """Lin's bound sanity: the singleton's delay is within 2x of a
        placed Grid's uniform delay (it is usually just better)."""
        from repro.core.strategy import ExplicitStrategy
        from repro.core.response_time import evaluate

        sing = singleton_placement(planetlab)
        sing_delay = evaluate(
            sing, ExplicitStrategy.uniform(sing)
        ).avg_network_delay
        grid_result = best_placement(planetlab, GridQuorumSystem(4))
        assert sing_delay <= 2.0 * grid_result.avg_network_delay
