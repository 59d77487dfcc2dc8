"""Integration tests for the simulated Q/U service."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.qu.service import QUService
from repro.sim.metrics import summarize


def build_service(topology, server_nodes, quorum_size, **kwargs):
    return QUService(
        topology,
        np.asarray(server_nodes),
        quorum_size=quorum_size,
        **kwargs,
    )


class TestServiceConstruction:
    def test_duplicate_server_nodes_rejected(self, line_topology):
        with pytest.raises(SimulationError):
            build_service(line_topology, [1, 1, 2], 2)

    def test_bad_quorum_size_rejected(self, line_topology):
        with pytest.raises(SimulationError):
            build_service(line_topology, [0, 1, 2], 4)

    def test_run_without_clients_rejected(self, line_topology):
        service = build_service(line_topology, [0, 1, 2], 2)
        with pytest.raises(SimulationError):
            service.run(duration_ms=100.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, line_topology, bad):
        """``time > nan`` is False, so a NaN or infinite horizon never
        stopped the closed loop: the run hung."""
        service = build_service(line_topology, [0, 1, 2], 2)
        service.add_client(5)
        with pytest.raises(SimulationError, match=f"finite, got {bad}"):
            service.run(duration_ms=bad)

    def test_negative_server_node_rejected(self, planetlab):
        """-1 would index the delay matrix from its end: node 49."""
        with pytest.raises(SimulationError, match="node -1 .* 50 nodes"):
            build_service(planetlab, [0, 1, 2, 3, -1], 3)

    def test_negative_alias_of_a_server_node_rejected(self, planetlab):
        """-1 is node 49 again, though the ids differ."""
        with pytest.raises(SimulationError, match="node -1 .* 50 nodes"):
            build_service(planetlab, [0, 49, -1], 2)

    def test_server_node_past_topology_rejected(self, planetlab):
        with pytest.raises(SimulationError, match="node 77 .* 50 nodes"):
            build_service(planetlab, [0, 1, 77], 2)

    @pytest.mark.parametrize("node", [-2, 77])
    def test_client_node_outside_topology_rejected(self, planetlab, node):
        service = build_service(planetlab, [0, 1, 2, 3], 3)
        with pytest.raises(
            SimulationError, match=f"node {node} .* 50 nodes"
        ):
            service.add_client(node)
        assert service.client_nodes == []


class TestSingleClient:
    def test_operations_complete(self, line_topology):
        service = build_service(line_topology, [0, 1, 2], 2, seed=1)
        service.add_client(node=0)
        service.run(duration_ms=500.0)
        records = service.all_records()
        assert len(records) > 0
        assert all(r.response_time_ms > 0 for r in records)

    def test_response_exceeds_network_delay(self, line_topology):
        service = build_service(line_topology, [0, 1, 2], 2, seed=1)
        service.add_client(node=5)
        service.run(duration_ms=500.0)
        for r in service.all_records():
            # Response includes >= 1 ms service on the slowest server.
            assert r.response_time_ms >= r.network_delay_ms + 1.0 - 1e-9

    def test_full_quorum_network_delay(self, line_topology):
        """With quorum = all servers, the network component is the max
        RTT to any server."""
        service = build_service(line_topology, [0, 9], 2, seed=1)
        service.add_client(node=0)
        service.run(duration_ms=500.0)
        for r in service.all_records():
            assert r.network_delay_ms == pytest.approx(90.0)

    def test_closed_loop_timing(self, line_topology):
        """Consecutive ops: the next issues exactly when the previous
        completes (zero think time)."""
        service = build_service(line_topology, [0, 1], 2, seed=1)
        service.add_client(node=0)
        service.run(duration_ms=300.0)
        records = service.all_records()
        for prev, cur in zip(records, records[1:]):
            assert cur.issued_at_ms == pytest.approx(prev.completed_at_ms)


class TestDeterminism:
    def run_once(self, topology, seed):
        service = build_service(topology, [0, 2, 4, 6, 8], 4, seed=seed)
        for node in (1, 3, 5):
            service.add_client(node=node)
        service.run(duration_ms=400.0)
        return [
            (r.client_id, r.issued_at_ms, r.completed_at_ms)
            for r in service.all_records()
        ]

    def test_same_seed_same_trace(self, line_topology):
        assert self.run_once(line_topology, 7) == self.run_once(
            line_topology, 7
        )

    def test_different_seed_different_trace(self, line_topology):
        assert self.run_once(line_topology, 7) != self.run_once(
            line_topology, 8
        )


class TestQueueing:
    def test_utilization_grows_with_clients(self, line_topology):
        def mean_util(n_clients):
            service = build_service(
                line_topology, [0, 1, 2], 2, seed=3
            )
            for i in range(n_clients):
                service.add_client(node=i % 10)
            service.run(duration_ms=800.0)
            return service.server_utilizations().mean()

        assert mean_util(12) > mean_util(2)

    def test_response_grows_with_clients(self, line_topology):
        def mean_response(n_clients):
            service = build_service(
                line_topology, [0, 1, 2], 2, seed=3, service_time_ms=2.0
            )
            for i in range(n_clients):
                service.add_client(node=i % 10)
            service.run(duration_ms=1500.0)
            return summarize(
                service.all_records(), warmup_ms=300.0
            ).mean_response_ms

        assert mean_response(16) > mean_response(1)

    def test_server_fifo_order(self, line_topology):
        """All clients at one node hitting one single-server quorum are
        served in arrival order."""
        service = build_service(line_topology, [0], 1, seed=4)
        for _ in range(5):
            service.add_client(node=9)
        service.run(duration_ms=400.0)
        assert service.requests_processed[0] > 0
        # With 5 closed-loop clients and a single 1ms server 90ms away,
        # utilization stays modest but queueing is visible at bursts.
        records = service.all_records()
        assert all(
            r.response_time_ms >= r.network_delay_ms + 1.0 - 1e-9
            for r in records
        )


class TestContention:
    def test_private_objects_never_retry(self, line_topology):
        """Each client writes its own object, so co-located clients never
        contend: a rejected condition would raise, and every client keeps
        completing operations."""
        service = build_service(line_topology, [0, 1, 2], 2, seed=5)
        for _ in range(3):
            service.add_client(node=0)
        service.run(duration_ms=1000.0)
        assert all(len(records) > 0 for records in service.records)
        # Object c is client c's: only its writes, or the zero version.
        for versions in service._versions:
            assert len(versions) == 3
            for client, ((_, writer, _), _) in enumerate(versions):
                assert writer in (client, -1)

    def test_rejected_condition_raises(self, line_topology):
        """A server that rejects the condition would need Q/U's contention
        resolution, which is out of scope: the run stops with an error
        naming the client instead of retrying. Server 2 holds a version
        of client 1's object newer than any the client wrote."""
        service = build_service(line_topology, [0, 1, 2], 2, seed=5)
        service.add_client(node=3)
        service.add_client(node=4)
        service._versions[2][1] = ((9, 1, 9), 9)
        with pytest.raises(SimulationError, match="client 1: "):
            service.run(duration_ms=1000.0)


class TestRunsOnce:
    """A service's clients cannot resume their closed loops: a second
    ``run`` raises instead of silently doing nothing or restarting
    clients over their own in-flight attempts."""

    def test_shorter_second_run_raises(self, line_topology):
        service = build_service(line_topology, [0, 1, 2], 2, seed=1)
        service.add_client(node=5)
        service.run(duration_ms=100.0)
        completed = len(service.all_records())
        with pytest.raises(SimulationError, match="already run"):
            service.run(duration_ms=50.0)
        assert service.sim.now == 100.0
        assert len(service.all_records()) == completed

    def test_longer_second_run_raises(self, planetlab):
        """Restarting these clients would overlap their in-flight
        attempts, which then looked like a rejected condition."""
        service = build_service(planetlab, list(range(6)), 5, seed=1)
        service.add_client(7)
        service.add_client(9)
        service.run(duration_ms=100.0)
        with pytest.raises(SimulationError, match="already run"):
            service.run(duration_ms=300.0)
        assert service.sim.now == 100.0

    def test_failed_run_cannot_run_again(self, line_topology):
        service = build_service(line_topology, [0, 1, 2], 2)
        service.add_client(5)
        with pytest.raises(SimulationError, match="finite"):
            service.run(duration_ms=float("nan"))
        with pytest.raises(SimulationError, match="already run"):
            service.run(duration_ms=100.0)

    def test_client_added_after_run_raises(self, line_topology):
        """A late client could never issue, yet it got a record list and a
        version at every server."""
        service = build_service(line_topology, [0, 1, 2], 2, seed=1)
        service.add_client(5)
        service.run(duration_ms=100.0)
        with pytest.raises(SimulationError, match="already run"):
            service.add_client(6)
        assert service.client_nodes == [5]
        assert len(service.records) == 1
