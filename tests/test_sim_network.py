"""Tests for simulated message delivery, metrics, and the Poisson workload."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.metrics import OperationRecord, summarize, summarize_arrays
from repro.sim.network import SimNetwork
from repro.sim.workload import PoissonArrivals


class TestSimNetwork:
    def test_one_way_delay_is_half_rtt(self, line_topology):
        sim = Simulator()
        net = SimNetwork(sim, line_topology)
        assert net.one_way_delay(0, 5) == pytest.approx(25.0)

    def test_delivery_time(self, line_topology):
        sim = Simulator()
        net = SimNetwork(sim, line_topology)
        deliveries = []
        net.send(0, 5, lambda p: deliveries.append((p, sim.now)), "hello")
        sim.run(until=100.0)
        assert deliveries == [("hello", 25.0)]

    def test_message_counter(self, line_topology):
        sim = Simulator()
        net = SimNetwork(sim, line_topology)
        deliveries = []
        for _ in range(3):
            net.send(0, 1, deliveries.append, None)
        assert net.messages_sent == 3

    def test_message_delay_is_what_send_waits(self, line_topology):
        """``message_delay`` returns the delay ``send`` waits and counts
        the message exactly as ``send`` does."""
        sim = Simulator()
        sender = SimNetwork(sim, line_topology)
        arrivals = []
        for i, dst in enumerate((9, 2, 9)):
            sender.send(
                0, dst, lambda i: arrivals.append((i, sim.now)), i
            )
        sim.run(until=1000.0)
        direct = SimNetwork(Simulator(), line_topology)
        delays = [direct.message_delay(0, dst) for dst in (9, 2, 9)]
        assert [t for _, t in sorted(arrivals)] == delays
        assert direct.messages_sent == sender.messages_sent == 3


class TestMetrics:
    def make_record(self, issued, completed, net=10.0):
        return OperationRecord(
            client_id=0,
            client_node=0,
            issued_at_ms=issued,
            completed_at_ms=completed,
            network_delay_ms=net,
        )

    def test_response_time_derivation(self):
        r = self.make_record(100.0, 130.0, net=25.0)
        assert r.response_time_ms == pytest.approx(30.0)
        assert r.queueing_delay_ms == pytest.approx(5.0)

    def test_summarize_means(self):
        records = [
            self.make_record(0.0, 20.0, net=15.0),
            self.make_record(10.0, 50.0, net=25.0),
        ]
        stats = summarize(records)
        assert stats.n_operations == 2
        assert stats.mean_response_ms == pytest.approx(30.0)
        assert stats.mean_network_delay_ms == pytest.approx(20.0)
        assert stats.mean_processing_ms == pytest.approx(10.0)

    def test_warmup_filtering(self):
        records = [
            self.make_record(0.0, 5.0),
            self.make_record(100.0, 140.0),
        ]
        stats = summarize(records, warmup_ms=50.0)
        assert stats.n_operations == 1
        assert stats.mean_response_ms == pytest.approx(40.0)

    def test_empty_after_warmup_raises(self):
        records = [self.make_record(0.0, 5.0)]
        with pytest.raises(SimulationError):
            summarize(records, warmup_ms=10.0)

    def test_percentiles_ordered(self):
        rng = np.random.default_rng(0)
        records = [
            self.make_record(float(i), float(i) + rng.uniform(5, 50))
            for i in range(100)
        ]
        stats = summarize(records)
        assert stats.median_response_ms <= stats.p95_response_ms


class TestSummarizeArrays:
    """Direct edge cases of the columnar path (the fluid backend's and
    the telemetry probe's summarizer)."""

    def test_empty_arrays_raise(self):
        empty = np.array([])
        with pytest.raises(SimulationError, match="warmup"):
            summarize_arrays(empty, empty, empty)

    def test_all_operations_inside_warmup_raise(self):
        issued = np.array([0.0, 5.0, 9.0])
        with pytest.raises(SimulationError, match="warmup"):
            summarize_arrays(issued, issued + 3.0, np.zeros(3),
                             warmup_ms=10.0)

    def test_single_sample_percentiles_coincide(self):
        stats = summarize_arrays(
            np.array([100.0]), np.array([142.0]), np.array([30.0])
        )
        assert stats.n_operations == 1
        assert stats.mean_response_ms == pytest.approx(42.0)
        assert stats.p50_response_ms == pytest.approx(42.0)
        assert stats.p95_response_ms == pytest.approx(42.0)
        assert stats.p99_response_ms == pytest.approx(42.0)
        assert stats.std_response_ms == pytest.approx(0.0)
        assert stats.percentiles() == {
            "p50_response_ms": pytest.approx(42.0),
            "p95_response_ms": pytest.approx(42.0),
            "p99_response_ms": pytest.approx(42.0),
        }

    def test_client_ids_weight_clients_equally(self):
        """Three fast ops from client 0, one slow op from client 1: the
        per-client mean weighs the clients 50/50 regardless of volume."""
        issued = np.zeros(4)
        completed = np.array([10.0, 10.0, 10.0, 50.0])
        network = np.zeros(4)
        ids = np.array([0, 0, 0, 1])
        per_client = summarize_arrays(issued, completed, network,
                                      client_ids=ids)
        assert per_client.mean_response_ms == pytest.approx(30.0)
        # Without client ids every operation is its own client (the open
        # loop's convention): plain per-operation means.
        per_op = summarize_arrays(issued, completed, network)
        assert per_op.mean_response_ms == pytest.approx(20.0)
        # percentiles stay per-operation either way
        assert per_client.p50_response_ms == per_op.p50_response_ms

    def test_warmup_keeps_only_late_operations(self):
        issued = np.array([0.0, 100.0, 200.0])
        completed = issued + np.array([10.0, 20.0, 30.0])
        stats = summarize_arrays(issued, completed, np.zeros(3),
                                 warmup_ms=50.0)
        assert stats.n_operations == 2
        assert stats.mean_response_ms == pytest.approx(25.0)


class TestWorkload:
    def test_poisson_sorted_and_bounded(self):
        arrivals = PoissonArrivals(rate_per_ms=0.5, seed=1)
        times = arrivals.sample_until(1000.0)
        assert np.all(np.diff(times) >= 0)
        assert times[-1] < 1000.0

    def test_poisson_rate_roughly_respected(self):
        arrivals = PoissonArrivals(rate_per_ms=2.0, seed=2)
        times = arrivals.sample_until(10_000.0)
        assert 18_000 < len(times) < 22_000

    def test_poisson_deterministic(self):
        a = PoissonArrivals(rate_per_ms=1.0, seed=3).sample_until(100.0)
        b = PoissonArrivals(rate_per_ms=1.0, seed=3).sample_until(100.0)
        assert np.array_equal(a, b)

    def test_poisson_validation(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(rate_per_ms=0.0, seed=1).sample_until(10.0)
        with pytest.raises(SimulationError):
            PoissonArrivals(rate_per_ms=1.0, seed=1).sample_until(0.0)
