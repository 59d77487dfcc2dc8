"""Tests for the closed-loop measurement plane (`repro.dynamics.telemetry`).

The ISSUE acceptance pins live in :class:`TestClosedLoopReplay`: on a
seeded diurnal + flash-crowd trace the regret ordering is
``clairvoyant <= threshold < static``, the threshold policy's delay stays
within a pinned factor of the clairvoyant floor, and the whole closed
loop is bit-identical for jobs=1 vs jobs=2 — on both LP backends.
:class:`TestEstimator` holds the seeded estimator property tests
(convergence as noise -> 0, bounded bias under drift, staleness).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from oracles import replay

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ExplicitStrategy
from repro.dynamics.events import effective_rtt
from repro.dynamics.replay import CLAIRVOYANT, tune_threshold
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
)
from repro.dynamics import telemetry as telemetry_module
from repro.dynamics.telemetry import (
    TelemetryConfig,
    TelemetryEstimator,
    probe_epoch,
)
from repro.errors import DynamicsError, SimulationError
from repro.network.graph import Topology
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import ResultCache
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.workload import PoissonArrivals

GRID = GridQuorumSystem(2)

@pytest.fixture()
def grid2_placed(line_topology):
    return PlacedQuorumSystem(GRID, Placement([0, 1, 2, 3]), line_topology)


@pytest.fixture(scope="module")
def two_cluster_topology() -> Topology:
    """12 nodes in two tight clusters ~140 ms apart (+2 ms link floor).

    Small enough that a closed-loop replay is cheap, clustered enough
    that diurnal drift genuinely moves the optimal strategy — the regret
    ordering pins below were calibrated on exactly this metric.
    """
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 20, size=(6, 2))
    b = rng.uniform(100, 120, size=(6, 2))
    pts = np.vstack([a, b])
    rtt = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)) + 2.0
    np.fill_diagonal(rtt, 0.0)
    return Topology((rtt + rtt.T) / 2, metric_closure=False)


def _drifted_trace(topology, n_epochs=12):
    """Drift-dominated diurnal + shallow flash crowd, single segment."""
    return combine(
        diurnal_scenario(topology, n_epochs, seed=5, amplitude=0.4,
                         period=6),
        flash_crowd_scenario(topology, n_epochs, seed=6, fraction=0.2,
                             depth=0.8),
    )


def _arrivals():
    """Open-loop arrivals (required by the fluid backend)."""
    return PoissonArrivals(rate_per_ms=0.5, seed=17)


class TestTelemetryCollection:
    """The simulators' per-(client, server) measurement aggregation."""

    @pytest.mark.parametrize("backend", GenericQuorumSimulation.BACKENDS)
    def test_collects_pair_aggregates(self, grid2_placed, backend):
        sim = GenericQuorumSimulation(
            grid2_placed,
            ExplicitStrategy.uniform(grid2_placed),
            service_time_ms=1.0,
            seed=3,
            arrivals=_arrivals(),
            backend=backend,
            collect_telemetry=True,
        )
        result = sim.run(duration_ms=500.0)
        tel = result.telemetry
        assert tel is not None
        assert np.array_equal(tel.support_nodes, [0, 1, 2, 3])
        assert tel.counts.shape == (10, 4)
        assert tel.rtt_sum_ms.shape == (10, 4)
        assert int(tel.replies.sum()) > 0
        mean = tel.mean_rtt()
        observed = tel.counts > 0
        assert np.all(np.isfinite(mean[observed]))
        assert np.all(np.isnan(mean[~observed]))
        assert np.all(mean[observed] >= -1e-9)

    @pytest.mark.parametrize("backend", GenericQuorumSimulation.BACKENDS)
    def test_decomposition_recovers_exact_pair_rtt(
        self, grid2_placed, line_topology, backend
    ):
        """Subtracting the server-reported residence from the observed
        round-trip leaves exactly the pair RTT — on both backends, even
        under load (queueing lives entirely inside the residence)."""
        sim = GenericQuorumSimulation(
            grid2_placed,
            ExplicitStrategy.uniform(grid2_placed),
            service_time_ms=1.0,
            seed=3,
            arrivals=_arrivals(),
            backend=backend,
            collect_telemetry=True,
        )
        tel = sim.run(duration_ms=500.0).telemetry
        observed = tel.counts > 0
        rows, cols = np.nonzero(observed)
        truth = line_topology.rtt[rows, tel.support_nodes[cols]]
        gap = np.abs(tel.mean_rtt()[observed] - truth)
        assert float(gap.max()) < 1e-9
        assert tel.service_ms == pytest.approx(1.0)

    def test_off_by_default(self, grid2_placed):
        sim = GenericQuorumSimulation(
            grid2_placed, ExplicitStrategy.uniform(grid2_placed)
        )
        assert sim.run(duration_ms=200.0).telemetry is None

    @pytest.mark.parametrize("backend", GenericQuorumSimulation.BACKENDS)
    def test_per_node_service_times(self, grid2_placed, backend):
        """An (n_nodes,) service profile is honored: a slowed support
        node reports exactly its own per-unit service time."""
        service = np.full(10, 0.5)
        service[2] = 4.0
        sim = GenericQuorumSimulation(
            grid2_placed,
            ExplicitStrategy.uniform(grid2_placed),
            service_time_ms=service,
            seed=3,
            arrivals=_arrivals(),
            backend=backend,
            collect_telemetry=True,
        )
        tel = sim.run(duration_ms=500.0).telemetry
        assert tel.service_ms[2] == pytest.approx(4.0)
        assert tel.service_ms[0] == pytest.approx(0.5)

    def test_bad_service_shapes_rejected(self, grid2_placed):
        strategy = ExplicitStrategy.uniform(grid2_placed)
        with pytest.raises(SimulationError):
            GenericQuorumSimulation(
                grid2_placed, strategy, service_time_ms=np.ones(3)
            )
        with pytest.raises(SimulationError):
            GenericQuorumSimulation(
                grid2_placed, strategy,
                service_time_ms=np.ones((10, 1)),
            )
        bad = np.ones(10)
        bad[4] = -0.5
        with pytest.raises(SimulationError):
            GenericQuorumSimulation(
                grid2_placed, strategy, service_time_ms=bad
            )

    @pytest.mark.parametrize("backend", GenericQuorumSimulation.BACKENDS)
    def test_percentiles_keyed_and_ordered(self, grid2_placed, backend):
        sim = GenericQuorumSimulation(
            grid2_placed,
            ExplicitStrategy.uniform(grid2_placed),
            service_time_ms=1.0,
            seed=3,
            arrivals=_arrivals(),
            backend=backend,
        )
        stats = sim.run(duration_ms=500.0).stats
        pct = stats.percentiles()
        assert set(pct) == {
            "p50_response_ms", "p95_response_ms", "p99_response_ms",
        }
        assert pct["p50_response_ms"] <= pct["p95_response_ms"]
        assert pct["p95_response_ms"] <= pct["p99_response_ms"]


class TestTelemetryConfig:
    def test_defaults_valid(self):
        cfg = TelemetryConfig()
        assert cfg.noise == 0.05 and cfg.seed == 0
        assert [f.name for f in dataclasses.fields(cfg)] == ["noise", "seed"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise": -0.1},
            {"noise": float("nan")},
            {"seed": -1},
            {"seed": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(DynamicsError):
            TelemetryConfig(**kwargs)

    def test_fingerprint_covers_every_knob(self):
        cfg = TelemetryConfig(noise=0.1, seed=3)
        fp = cfg.fingerprint_components()
        assert fp == {
            "noise": 0.1,
            "gain": telemetry_module.GAIN,
            "rate_per_ms": telemetry_module.PROBE_RATE_PER_MS,
            "probe_ms": telemetry_module.PROBE_MS,
            "service_time_ms": telemetry_module.PROBE_SERVICE_TIME_MS,
            "seed": 3,
        }
        # any field change must change the fingerprint (cache correctness)
        for other in (TelemetryConfig(noise=0.2, seed=3),
                      TelemetryConfig(noise=0.1, seed=4)):
            assert fp != other.fingerprint_components()


class TestProbeEpoch:
    def test_returns_support_telemetry(self, grid2_placed, line_topology):
        (tel,) = probe_epoch(
            grid2_placed,
            (ExplicitStrategy.uniform(grid2_placed),),
            line_topology.rtt,
            np.ones(10),
            seed=7,
        )
        assert np.array_equal(tel.support_nodes, [0, 1, 2, 3])
        assert int(tel.replies.sum()) > 0

    def test_deterministic_per_seed(self, grid2_placed, line_topology):
        strategy = ExplicitStrategy.uniform(grid2_placed)

        def run(seed):
            (sample,) = probe_epoch(
                grid2_placed, (strategy,), line_topology.rtt, np.ones(10),
                seed=seed,
            )
            return sample

        a, b, c = run(7), run(7), run(8)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.rtt_sum_ms, b.rtt_sum_ms)
        assert not np.array_equal(a.rtt_sum_ms, c.rtt_sum_ms)

    def test_zero_capacity_clamped_not_fatal(
        self, grid2_placed, line_topology
    ):
        caps = np.ones(10)
        caps[9] = 0.0  # not in the support; must not divide by zero
        (tel,) = probe_epoch(
            grid2_placed,
            (ExplicitStrategy.uniform(grid2_placed),),
            line_topology.rtt,
            caps,
            seed=7,
        )
        assert int(tel.replies.sum()) > 0

    def test_too_short_probe_is_tagged(
        self, grid2_placed, line_topology, monkeypatch
    ):
        monkeypatch.setattr(telemetry_module, "PROBE_MS", 1e-6)
        with pytest.raises(DynamicsError, match="probe"):
            probe_epoch(
                grid2_placed,
                (ExplicitStrategy.uniform(grid2_placed),),
                line_topology.rtt,
                np.ones(10),
                seed=7,
            )


class TestEstimator:
    """Seeded property tests for the EWMA estimation path."""

    @pytest.fixture()
    def full_gain(self, monkeypatch):
        """Estimates trust only the latest epoch (EWMA weight 1)."""
        monkeypatch.setattr(telemetry_module, "GAIN", 1.0)

    def _observe_once(self, placed, topology, noise, seed=0):
        cfg = TelemetryConfig(noise=noise, seed=seed)
        factors = np.linspace(0.8, 1.3, topology.n_nodes)
        truth = effective_rtt(topology.rtt, factors)
        (sample,) = probe_epoch(
            placed,
            (ExplicitStrategy.uniform(placed),),
            truth,
            np.ones(topology.n_nodes),
            seed=11,
        )
        est = TelemetryEstimator(placed, cfg)
        est.observe(sample, np.random.default_rng([seed, 0x7E1E]))
        return est, truth, sample

    def test_noiseless_estimate_recovers_true_rtt(
        self, grid2_placed, line_topology, full_gain
    ):
        """noise=0, gain=1: one epoch's estimate *is* the true drifted
        RTT on every observed pair — the decomposition (round-trip minus
        server-reported residence) is exact."""
        est, truth, sample = self._observe_once(
            grid2_placed, line_topology, noise=0.0
        )
        observed = sample.counts > 0
        rows, cols = np.nonzero(observed)
        nodes = sample.support_nodes[cols]
        assert est.rtt_estimate[rows, nodes] == pytest.approx(
            truth[rows, nodes], abs=1e-9
        )
        # capacities likewise: unit capacity, exactly recovered
        has = sample.replies > 0
        assert est.capacity_estimate[sample.support_nodes[has]] == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_error_shrinks_with_noise(
        self, grid2_placed, line_topology, full_gain
    ):
        """Same seed, smaller noise knob -> smaller estimation error
        (the seeded draws scale linearly with the knob)."""
        def error(noise):
            est, truth, sample = self._observe_once(
                grid2_placed, line_topology, noise=noise
            )
            observed = sample.counts > 0
            rows, cols = np.nonzero(observed)
            nodes = sample.support_nodes[cols]
            gap = est.rtt_estimate[rows, nodes] - truth[rows, nodes]
            return float(np.abs(gap).mean())

        e_small, e_big = error(0.01), error(0.2)
        assert e_small < e_big
        assert e_small < 0.05 * max(e_big, 1e-12) + 1e-9

    def test_bias_bounded_under_sustained_drift(
        self, grid2_placed, line_topology
    ):
        """Repeated noisy epochs against a fixed drifted truth: the EWMA
        converges to within a few percent of that truth (noise averages
        down as 1/sqrt(samples); the prior washes out geometrically)."""
        cfg = TelemetryConfig(noise=0.05, seed=2)  # at the EWMA weight 0.5
        factors = np.full(10, 1.25)
        truth = effective_rtt(line_topology.rtt, factors)
        strategy = ExplicitStrategy.uniform(grid2_placed)
        est = TelemetryEstimator(grid2_placed, cfg)
        rng = np.random.default_rng([cfg.seed, 0x7E1E])
        observed = None
        for epoch in range(6):
            (sample,) = probe_epoch(
                grid2_placed, (strategy,), truth, np.ones(10),
                seed=cfg.seed + epoch,
            )
            est.observe(sample, rng)
            seen = sample.counts > 0
            observed = seen if observed is None else (observed & seen)
        rows, cols = np.nonzero(observed)
        nodes = sample.support_nodes[cols]
        nonzero = truth[rows, nodes] > 0  # self-pairs have zero true RTT
        rel = np.abs(
            est.rtt_estimate[rows, nodes][nonzero]
            / truth[rows, nodes][nonzero]
            - 1.0
        )
        assert float(rel.mean()) < 0.03
        assert float(rel.max()) < 0.15
        # and the self-pairs estimate (at most) the noise floor itself
        self_est = est.rtt_estimate[rows, nodes][~nonzero]
        assert np.all(np.abs(self_est) < 1e-6)

    def test_unobserved_pairs_keep_prior_and_age(
        self, grid2_placed, line_topology
    ):
        """A strategy that never touches one quorum leaves the other
        servers' estimates at their prior, aging every epoch."""
        cfg = TelemetryConfig(noise=0.0, seed=0)
        n_quorums = GRID.num_quorums
        matrix = np.zeros((10, n_quorums))
        matrix[:, 0] = 1.0  # only ever access quorum 0
        quorum0 = {
            int(grid2_placed.placement.assignment[e])
            for e in GRID.quorums[0]
        }
        untouched = sorted({0, 1, 2, 3} - quorum0)
        assert untouched  # grid:2 quorums are proper subsets
        est = TelemetryEstimator(grid2_placed, cfg)
        rng = np.random.default_rng(0)
        for epoch in range(3):
            (sample,) = probe_epoch(
                grid2_placed, (ExplicitStrategy(matrix),), line_topology.rtt,
                np.ones(10), seed=epoch,
            )
            est.observe(sample, rng)
        assert est.epochs_observed == 3
        assert est.mean_staleness > 0.0
        for node in untouched:
            assert np.all(
                est.rtt_estimate[:, node] == line_topology.rtt[:, node]
            )
            assert est.capacity_estimate[node] == pytest.approx(1.0)

    def test_mismatched_support_rejected(
        self, grid2_placed, line_topology
    ):
        cfg = TelemetryConfig(seed=0)
        other = PlacedQuorumSystem(
            GRID, Placement([4, 5, 6, 7]), line_topology
        )
        (sample,) = probe_epoch(
            other,
            (ExplicitStrategy.uniform(other),),
            line_topology.rtt,
            np.ones(10),
            seed=1,
        )
        est = TelemetryEstimator(grid2_placed, cfg)
        with pytest.raises(DynamicsError, match="different servers"):
            est.observe(sample, np.random.default_rng(0))

    def test_estimation_is_deterministic(self, grid2_placed, line_topology):
        a, _, _ = self._observe_once(grid2_placed, line_topology, noise=0.1)
        b, _, _ = self._observe_once(grid2_placed, line_topology, noise=0.1)
        assert np.array_equal(a.rtt_estimate, b.rtt_estimate)
        assert np.array_equal(a.capacity_estimate, b.capacity_estimate)


class TestClosedLoopReplay:
    """ISSUE acceptance: regret ordering and determinism, both backends."""

    POLICIES = ("static", "threshold:0.05")

    @pytest.fixture(scope="class")
    def closed_loop(self, two_cluster_topology):
        return replay(
            two_cluster_topology,
            GRID,
            _drifted_trace(two_cluster_topology),
            policies=self.POLICIES,
            telemetry=TelemetryConfig(noise=0.05, seed=9),
        )

    def test_regret_ordering_clair_le_threshold_lt_static(
        self, closed_loop
    ):
        """The headline pin: adapting on noisy estimates beats never
        adapting, and stays within a small factor of the oracle."""
        static = float(closed_loop.regret("static").mean())
        threshold = float(closed_loop.regret("threshold:0.05").mean())
        assert np.all(closed_loop.regret(CLAIRVOYANT) == 0.0)
        assert threshold >= -1e-9
        assert threshold < static - 0.25  # calibrated: ~4.47 vs ~5.0 ms
        mean_thr = float(
            closed_loop.series["threshold:0.05"].expected_delay.mean()
        )
        mean_clair = float(
            closed_loop.series[CLAIRVOYANT].expected_delay.mean()
        )
        assert mean_thr <= 1.2 * mean_clair  # measured ~1.056

    def test_estimation_series_populated(self, closed_loop):
        thr = closed_loop.series["threshold:0.05"]
        assert 0.0 < thr.mean_estimation_error < 0.2
        assert thr.probe_operations.min() > 0
        assert np.all(np.isfinite(thr.staleness))
        # the clairvoyant baseline stays oracle: no probes, no error
        clair = closed_loop.series[CLAIRVOYANT]
        assert clair.mean_estimation_error == 0.0
        assert int(clair.probe_operations.sum()) == 0
        assert closed_loop.metadata["closed_loop"] is True

    def test_threshold_reoptimizes_less_than_clairvoyant(self, closed_loop):
        thr = closed_loop.series["threshold:0.05"]
        clair = closed_loop.series[CLAIRVOYANT]
        assert 0 < thr.reopt_count < clair.reopt_count

    def test_jobs_2_bit_identical_to_jobs_1(
        self, two_cluster_topology, lp_backend
    ):
        trace = _drifted_trace(two_cluster_topology)
        telemetry = TelemetryConfig(noise=0.05, seed=9)
        serial = replay(
            two_cluster_topology, GRID, trace, policies=self.POLICIES,
            telemetry=telemetry,
        )
        parallel = replay(
            two_cluster_topology, GRID, trace, policies=self.POLICIES,
            telemetry=telemetry, jobs=2,
        )
        assert set(serial.series) == set(parallel.series)
        for spec in serial.series:
            a, b = serial.series[spec], parallel.series[spec]
            assert np.array_equal(a.expected_delay, b.expected_delay)
            assert np.array_equal(a.reoptimized, b.reoptimized)
            assert np.array_equal(a.estimation_error, b.estimation_error)
            assert np.array_equal(a.staleness, b.staleness)
            assert np.array_equal(a.probe_operations, b.probe_operations)

    def test_cache_round_trip_includes_telemetry_in_keys(
        self, two_cluster_topology, tmp_path
    ):
        """Cached closed-loop points replay bit-identically, and a
        different noise setting misses the cache (the telemetry
        fingerprint is part of the content key)."""
        trace = _drifted_trace(two_cluster_topology)
        cache = ResultCache(tmp_path / "loop")
        kwargs = dict(policies=("threshold:0.05",), cache=cache)
        first = replay(
            two_cluster_topology, GRID, trace,
            telemetry=TelemetryConfig(noise=0.05, seed=9), **kwargs,
        )
        stores = cache.stores
        assert stores > 0
        second = replay(
            two_cluster_topology, GRID, trace,
            telemetry=TelemetryConfig(noise=0.05, seed=9), **kwargs,
        )
        assert cache.stores == stores
        assert np.array_equal(
            first.series["threshold:0.05"].expected_delay,
            second.series["threshold:0.05"].expected_delay,
        )
        replay(
            two_cluster_topology, GRID, trace,
            telemetry=TelemetryConfig(noise=0.1, seed=9), **kwargs,
        )
        assert cache.stores > stores  # new noise, new entries

    def test_oracle_replay_reports_zero_measurement_series(
        self, two_cluster_topology
    ):
        result = replay(
            two_cluster_topology,
            GRID,
            _drifted_trace(two_cluster_topology),
            policies=("static",),
        )
        series = result.series["static"]
        assert np.all(series.estimation_error == 0.0)
        assert np.all(series.staleness == 0.0)
        assert np.all(series.probe_operations == 0)
        assert result.metadata["closed_loop"] is False


class TestThresholdTuning:
    def test_sweep_selects_and_reports(self, two_cluster_topology):
        tuning = tune_threshold(
            two_cluster_topology,
            GRID,
            _drifted_trace(two_cluster_topology),
            thresholds=(0.05, 0.5),
            telemetry=TelemetryConfig(noise=0.05, seed=9),
            baseline_policies=("static",),
        )
        assert tuning.specs == ("threshold:0.05", "threshold:0.5")
        assert tuning.best_spec in tuning.specs
        # 0.5 never triggers on this trace, so 0.05 must win
        assert tuning.best_threshold == 0.05
        assert set(tuning.mean_regret) == set(tuning.specs)
        assert "static" in tuning.result.series  # baseline rode along
        assert tuning.result.series[tuning.best_spec].reopt_count > 1
        text = tuning.render_text()
        assert "threshold auto-tune" in text
        assert "best: threshold:0.05" in text

    def test_tuner_is_deterministic(self, two_cluster_topology):
        kwargs = dict(
            thresholds=(0.05, 0.5),
            telemetry=TelemetryConfig(noise=0.05, seed=9),
        )
        trace = _drifted_trace(two_cluster_topology)
        a = tune_threshold(two_cluster_topology, GRID, trace, **kwargs)
        b = tune_threshold(two_cluster_topology, GRID, trace, **kwargs)
        assert a.best_spec == b.best_spec
        assert a.mean_regret == b.mean_regret

    def test_bad_candidates_rejected(self, two_cluster_topology):
        trace = _drifted_trace(two_cluster_topology)
        with pytest.raises(DynamicsError, match="numbers"):
            tune_threshold(
                two_cluster_topology, GRID, trace, thresholds=("x",)
            )
        with pytest.raises(DynamicsError):
            tune_threshold(
                two_cluster_topology, GRID, trace, thresholds=()
            )
