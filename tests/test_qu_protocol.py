"""Tests for Q/U protocol state: timestamps, each server's latest version
per object, and the run's check that every quorum agrees.

Timestamps are ``(time, client_id, op_seq)`` tuples and versions
``(timestamp, value)`` tuples. The contended cases cannot arise when each
client writes its own object, so the tests set up the state that would
cause them by writing a server's version of an object directly.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.qu.service import ZERO_VERSION, QUService

ZERO = ZERO_VERSION[0]


def _successor(timestamp, client_id, op_seq):
    """The timestamp a write conditioned on ``timestamp`` creates."""
    return (timestamp[0] + 1, client_id, op_seq)


class TestTimestamps:
    def test_zero_is_smallest(self):
        later = _successor(ZERO, 1, 1)
        assert ZERO < later
        assert not later < ZERO

    def test_ordering_by_time_first(self):
        assert (1, 99, 99) < (2, 0, 0)

    def test_tie_break_by_client(self):
        assert (1, 1, 5) < (1, 2, 5)

    def test_next_for_increments_time(self, line_topology):
        """Each write is conditioned on the version the previous one
        created: after a run, client 2's object holds ``(k, 2, k)``
        with value ``k`` at every server."""
        service = QUService(line_topology, np.array([0, 4, 9]), 2, seed=3)
        for node in (1, 5, 8):
            service.add_client(node)
        service.run(duration_ms=600.0)
        for versions in service._versions:
            (time, client_id, op_seq), value = versions[2]
            assert time == op_seq == value > 0
            assert client_id == 2

    def test_equality_and_total_order(self):
        a = (1, 2, 3)
        b = (1, 2, 3)
        assert a == b
        assert a <= b and a >= b


def _service(line_topology, n_clients=5):
    """Three servers, every quorum all three, ``n_clients`` clients."""
    service = QUService(line_topology, np.array([0, 4, 9]), 3, seed=2)
    for node in range(n_clients):
        service.add_client(node)
    return service


#: A version of client 4's object newer than any its first write creates.
_AHEAD = ((5, 4, 5), 5)


class TestReplicaHistory:
    def test_starts_with_zero_candidate(self, line_topology):
        service = _service(line_topology)
        assert ZERO_VERSION == ((0, -1, -1), 0)
        assert all(
            versions == [ZERO_VERSION] * 5 for versions in service._versions
        )

    def test_latest_tracks_max(self, line_topology):
        """A server holding a newer version keeps it when a write
        conditioned on an older one arrives; the others take the write."""
        service = _service(line_topology)
        service._versions[1][4] = _AHEAD
        with pytest.raises(SimulationError, match="client 4"):
            service.run(duration_ms=200.0)
        first_write = ((1, 4, 1), 1)
        assert [versions[4] for versions in service._versions] == [
            first_write,
            _AHEAD,
            first_write,
        ]

    def test_catch_up_adopts_the_conditioned_on_version(self, line_topology):
        """A server that missed client 4's first three writes accepts the
        fourth, conditioned on the third, and holds the same version as
        the servers that saw them all."""
        service = _service(line_topology)
        third = ((3, 4, 3), 3)
        service._versions[0][4] = service._versions[1][4] = third
        service._conditions[4] = third[0]
        service._op_seqs[4] = 3
        service.run(duration_ms=200.0)
        assert len(service.records[4]) > 0
        latest = {versions[4] for versions in service._versions}
        assert len(latest) == 1
        ((time, client_id, op_seq), value) = latest.pop()
        assert time == op_seq == value > 3
        assert client_id == 4


class TestClassification:
    def test_agreeing_quorum_is_complete(self, line_topology):
        """A client at node 0 and servers at nodes 0, 1 and 2 (RTT 0, 10
        and 20 ms): every attempt completes when its reply from node 2
        arrives, 20 ms of network and 1 ms of service after its issue."""
        service = QUService(line_topology, np.array([0, 1, 2]), 3, seed=1)
        service.add_client(0)
        service.run(duration_ms=100.0)
        records = service.all_records()
        assert len(records) == 4
        for record in records:
            assert record.network_delay_ms == 20.0
            assert record.response_time_ms == pytest.approx(21.0)

    def test_lagging_server_is_contended(self, line_topology):
        """A quorum that disagrees on the latest version would need Q/U's
        contention resolution: server 1 is ahead of client 4's
        condition and replies its newer version, so the servers that
        accepted lag behind it. With private objects it cannot happen, so
        the run raises naming the client instead of retrying."""
        service = _service(line_topology)
        service._versions[1][4] = _AHEAD
        with pytest.raises(SimulationError, match="client 4: "):
            service.run(duration_ms=200.0)

    def test_rejected_condition_is_contended(self, line_topology):
        """Every server is ahead of client 4's condition: they agree on
        their version but reject the write."""
        service = _service(line_topology)
        for versions in service._versions:
            versions[4] = _AHEAD
        with pytest.raises(SimulationError, match="client 4: "):
            service.run(duration_ms=200.0)
