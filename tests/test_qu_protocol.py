"""Tests for Q/U protocol state: timestamps, histories, classification."""

import pytest

from repro.qu.objects import Candidate, ReplicaHistory, classify_replies
from repro.qu.timestamps import QUTimestamp


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

    def test_barrier_beats_non_barrier_at_same_time(self):
        plain = QUTimestamp(time=3, barrier=False, client_id=0, op_seq=0)
        barrier = QUTimestamp(time=3, barrier=True, client_id=0, op_seq=0)
        assert plain < barrier

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

    def test_prune_keeps_latest(self):
        h = ReplicaHistory()
        ts = QUTimestamp.zero()
        for i in range(20):
            ts = ts.next_for(1, i)
            h.accept(Candidate(ts, value=i))
        h.prune(keep_last=4)
        assert len(h.candidates) == 4
        assert h.latest.timestamp == ts
        assert h.pruned_below < ts

    def test_prune_noop_when_short(self):
        h = ReplicaHistory()
        h.prune(keep_last=8)
        assert len(h.candidates) == 1


class TestClassification:
    def test_agreeing_quorum_is_complete(self):
        ts = QUTimestamp.zero().next_for(1, 1)
        latests = [Candidate(ts, 1) for _ in range(3)]
        status, top = classify_replies(latests)
        assert status == "complete"
        assert top.timestamp == ts

    def test_lagging_server_is_contended(self):
        ts1 = QUTimestamp.zero().next_for(1, 1)
        ts2 = ts1.next_for(1, 2)
        latests = [Candidate(ts2, 2), Candidate(ts1, 1)]
        status, top = classify_replies(latests)
        assert status == "contended"
        assert top.timestamp == ts2  # re-condition on the highest seen
