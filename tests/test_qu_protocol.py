"""Tests for Q/U protocol state: timestamps, histories, and the client's
check that its quorum agrees."""

import pytest

from repro.errors import SimulationError
from repro.qu.client import QUClient
from repro.qu.objects import Candidate, ReplicaHistory
from repro.qu.timestamps import QUTimestamp
from repro.sim.engine import Simulator


class TestTimestamps:
    def test_zero_is_smallest(self):
        zero = QUTimestamp.zero()
        later = zero.next_for(client_id=1, op_seq=1)
        assert zero < later
        assert not later < zero

    def test_ordering_by_time_first(self):
        a = QUTimestamp(time=1, client_id=99, op_seq=99)
        b = QUTimestamp(time=2, client_id=0, op_seq=0)
        assert a < b

    def test_tie_break_by_client(self):
        a = QUTimestamp(time=1, client_id=1, op_seq=5)
        b = QUTimestamp(time=1, client_id=2, op_seq=5)
        assert a < b

    def test_next_for_increments_time(self):
        ts = QUTimestamp(time=7, client_id=1, op_seq=3)
        nxt = ts.next_for(client_id=2, op_seq=9)
        assert nxt.time == 8
        assert nxt.client_id == 2
        assert nxt.op_seq == 9

    def test_equality_and_total_order(self):
        a = QUTimestamp(time=1, client_id=2, op_seq=3)
        b = QUTimestamp(time=1, client_id=2, op_seq=3)
        assert a == b
        assert a <= b and a >= b


class TestReplicaHistory:
    def test_starts_with_zero_candidate(self):
        h = ReplicaHistory()
        assert h.latest.timestamp == QUTimestamp.zero()

    def test_latest_tracks_max(self):
        h = ReplicaHistory()
        t1 = QUTimestamp.zero().next_for(1, 1)
        t2 = t1.next_for(1, 2)
        h.accept(Candidate(t2, value=2))
        h.accept(Candidate(t1, value=1))
        assert h.latest.timestamp == t2


def _attempt(latests, accepted=True):
    """Run one client attempt on a 3-server quorum whose servers reply
    with ``latests``; returns the client after its completion event."""
    sim = Simulator()
    client = QUClient(
        client_id=4,
        node=0,
        sim=sim,
        send_request=lambda request, quorum: None,
        rtt_to_server=lambda server_id: 10.0,
        n_servers=3,
        quorum_size=3,
        seed=0,
    )
    client.start()
    sim.run(max_events=1)  # issue the first attempt
    for latest in latests:
        client.on_reply(accepted, latest, sim.now + 5.0, sim.reserve())
    sim.run(max_events=1)  # the completion, then the next attempt's issue
    return client


class TestClassification:
    def test_agreeing_quorum_is_complete(self):
        ts = QUTimestamp.zero().next_for(4, 1)
        client = _attempt([Candidate(ts, 1) for _ in range(3)])
        assert client.operations_completed == 1
        assert client.records[0].completed_at_ms == 5.0

    def test_lagging_server_is_contended(self):
        """A quorum that disagrees on the latest version would need Q/U's
        contention resolution; with private objects it cannot happen, so
        the client raises instead of retrying."""
        ts1 = QUTimestamp.zero().next_for(4, 1)
        ts2 = ts1.next_for(4, 2)
        latests = [Candidate(ts2, 2), Candidate(ts1, 1), Candidate(ts2, 2)]
        with pytest.raises(SimulationError, match="client 4"):
            _attempt(latests)

    def test_rejected_condition_is_contended(self):
        ts = QUTimestamp.zero().next_for(4, 1)
        with pytest.raises(SimulationError, match="client 4"):
            _attempt([Candidate(ts, 1) for _ in range(3)], accepted=False)
