"""Tests for the Section-3 Q/U experiment harness."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import SimulationError
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.experiment import (
    N_CLIENT_SITES,
    QUExperimentConfig,
    run_qu_experiment,
    select_client_sites,
)


class TestConfig:
    def test_derived_parameters(self):
        cfg = QUExperimentConfig(t=3, clients_per_site=4)
        assert cfg.n_servers == 16
        assert cfg.quorum_size == 13
        assert cfg.n_clients == 40


class TestClientSiteSelection:
    def test_selects_requested_count(self, planetlab):
        qs = ThresholdQuorumSystem(6, 5)
        placed = PlacedQuorumSystem(
            qs, Placement(np.arange(6)), planetlab
        )
        sites = select_client_sites(planetlab, placed)
        assert len(sites) == N_CLIENT_SITES == 10
        assert len(set(sites.tolist())) == 10

    def test_sites_approximate_global_average(self, planetlab):
        """The chosen sites' average balanced delay is closer to the
        all-nodes average than a random choice would typically be."""
        from repro.core.response_time import evaluate
        from repro.core.strategy import ThresholdBalancedStrategy

        qs = ThresholdQuorumSystem(6, 5)
        placed = PlacedQuorumSystem(
            qs, Placement(np.arange(6)), planetlab
        )
        sites = select_client_sites(planetlab, placed)
        per_node = evaluate(
            placed, ThresholdBalancedStrategy(), alpha=0.0
        ).per_client_network_delay
        target = per_node.mean()
        chosen_gap = abs(per_node[sites].mean() - target)
        assert chosen_gap < 0.1 * target


class TestRunExperiment:
    def test_small_run_completes(self, planetlab):
        cfg = QUExperimentConfig(
            t=1, clients_per_site=1, duration_ms=800.0, warmup_ms=100.0
        )
        result = run_qu_experiment(planetlab, cfg)
        assert result.operations_completed > 0
        assert result.mean_response_ms > result.mean_network_delay_ms
        assert len(result.server_nodes) == 6
        assert len(result.client_sites) == 10

    def test_measured_close_to_analytic_at_low_load(self, planetlab):
        """With one client per site the measured network delay matches the
        analytic balanced expectation closely."""
        cfg = QUExperimentConfig(
            t=1, clients_per_site=1, duration_ms=1500.0, warmup_ms=200.0
        )
        result = run_qu_experiment(planetlab, cfg)
        assert result.mean_network_delay_ms == pytest.approx(
            result.analytic_network_delay_ms, rel=0.1
        )

    def test_more_clients_more_utilization(self, planetlab):
        low = run_qu_experiment(
            planetlab,
            QUExperimentConfig(
                t=1, clients_per_site=1, duration_ms=800.0, warmup_ms=100.0
            ),
        )
        high = run_qu_experiment(
            planetlab,
            QUExperimentConfig(
                t=1, clients_per_site=6, duration_ms=800.0, warmup_ms=100.0
            ),
        )
        assert (
            high.mean_server_utilization > low.mean_server_utilization
        )

    def test_universe_too_large_rejected(self, line_topology):
        cfg = QUExperimentConfig(t=2)  # needs 11 nodes of 10
        with pytest.raises(SimulationError):
            run_qu_experiment(line_topology, cfg)

    def test_deterministic_given_seed(self, planetlab):
        cfg = QUExperimentConfig(
            t=1, clients_per_site=2, duration_ms=600.0, warmup_ms=100.0,
            seed=11,
        )
        a = run_qu_experiment(planetlab, cfg)
        b = run_qu_experiment(planetlab, cfg)
        assert a.mean_response_ms == b.mean_response_ms
        assert a.operations_completed == b.operations_completed
