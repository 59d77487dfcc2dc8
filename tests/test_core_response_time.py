"""Tests for the response-time model (equations 4.1-4.2)."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import (
    DEFAULT_OP_SRV_TIME_MS,
    alpha_from_demand,
    average_network_delay,
    evaluate,
)
from repro.core.strategy import ExplicitStrategy, ThresholdBalancedStrategy
from repro.errors import StrategyError
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


@pytest.fixture()
def grid2_placed(line_topology):
    return PlacedQuorumSystem(
        GridQuorumSystem(2), Placement([0, 1, 2, 3]), line_topology
    )


class TestAlpha:
    def test_paper_values(self):
        assert alpha_from_demand(1000) == pytest.approx(7.0)
        assert alpha_from_demand(4000) == pytest.approx(28.0)
        assert alpha_from_demand(16000) == pytest.approx(112.0)

    def test_default_op_time(self):
        assert DEFAULT_OP_SRV_TIME_MS == 0.007

    def test_negative_rejected(self):
        with pytest.raises(StrategyError):
            alpha_from_demand(-1)


class TestEvaluate:
    def test_alpha_zero_response_equals_delay(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        result = evaluate(grid2_placed, s, alpha=0.0)
        assert result.avg_response_time == pytest.approx(
            result.avg_network_delay
        )
        assert result.avg_load_penalty == pytest.approx(0.0)

    def test_alpha_monotonicity(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        r0 = evaluate(grid2_placed, s, alpha=0.0)
        r1 = evaluate(grid2_placed, s, alpha=10.0)
        r2 = evaluate(grid2_placed, s, alpha=100.0)
        assert (
            r0.avg_response_time
            < r1.avg_response_time
            < r2.avg_response_time
        )
        # Network delay is alpha-independent.
        assert r1.avg_network_delay == pytest.approx(r0.avg_network_delay)

    def test_load_penalty_bounded_by_alpha_times_max_load(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        alpha = 50.0
        result = evaluate(grid2_placed, s, alpha=alpha)
        assert result.avg_load_penalty <= alpha * result.max_node_load + 1e-9

    def test_hand_computed_response(self, line_topology):
        """Single quorum on two nodes: response = max(d + alpha * load)."""
        system = ThresholdQuorumSystem(1, 1)
        placed = PlacedQuorumSystem(system, Placement([5]), line_topology)
        s = ExplicitStrategy(np.ones((10, 1)))
        alpha = 10.0
        result = evaluate(placed, s, alpha=alpha)
        # Node 5 carries load 1 from every client -> load_f = 1.
        # Client v response = d(v,5) + 10.
        expected = line_topology.rtt[:, 5].mean() + alpha
        assert result.avg_response_time == pytest.approx(expected)

    def test_client_subset(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        subset = evaluate(grid2_placed, s, clients=np.array([0, 1]))
        full = evaluate(grid2_placed, s)
        manual = full.per_client_network_delay[:2].mean()
        assert subset.avg_network_delay == pytest.approx(manual)

    def test_loads_computed_over_all_clients(self, grid2_placed):
        """Even with a client subset, load_f averages over all of V."""
        s = ExplicitStrategy.uniform(grid2_placed)
        subset = evaluate(grid2_placed, s, clients=np.array([0]))
        full = evaluate(grid2_placed, s)
        assert np.allclose(subset.node_loads, full.node_loads)

    def test_invalid_clients_rejected(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        with pytest.raises(StrategyError):
            evaluate(grid2_placed, s, clients=np.array([99]))
        with pytest.raises(StrategyError):
            evaluate(grid2_placed, s, clients=np.array([], dtype=int))

    def test_negative_alpha_rejected(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        with pytest.raises(StrategyError):
            evaluate(grid2_placed, s, alpha=-1.0)

    def test_average_network_delay_helper(self, grid2_placed):
        s = ExplicitStrategy.uniform(grid2_placed)
        assert average_network_delay(grid2_placed, s) == pytest.approx(
            evaluate(grid2_placed, s).avg_network_delay
        )

    def test_threshold_strategy_integration(self, line_topology):
        maj = ThresholdQuorumSystem(5, 3)
        placed = PlacedQuorumSystem(
            maj, Placement([0, 1, 2, 3, 4]), line_topology
        )
        result = evaluate(placed, ThresholdBalancedStrategy(), alpha=10.0)
        # Load q/n = 0.6 on every support node; penalty = alpha * 0.6.
        assert result.avg_load_penalty == pytest.approx(6.0)
