"""Bit-identity of the Q/U event path against the formulation it replaced.

The Section-3 Q/U simulation pays a few cheap Python calls per event, and
as few events and objects per operation as the protocol allows. One
attempt on a quorum of ``q`` servers is one
:class:`~repro.qu.messages.QURequest` shared by the ``q`` servers, one
accepted candidate they share, and ``2q + 1`` events: ``q`` request
deliveries, ``q`` service completions and one completion at the client,
pushed under the sequence number the reply that arrives last reserved
when it was sent (:meth:`Simulator.reserve`). Below that,
:class:`~repro.qu.timestamps.QUTimestamp` orders natively as a
``dataclass(order=True)``, :class:`~repro.qu.objects.ReplicaHistory`
keeps only its latest candidate, updated on ``accept``,
:meth:`Simulator.schedule` pushes onto the heap directly, and
:meth:`SimNetwork.message_delay` reads one-way delays from a per-source
memo.

The reference below is the straightforward event-per-message formulation
those replaced: a request object per server and a reply message with a
one-candidate history copy per server, each reply its own delivery event
that the client files in a dict; ``total_ordering`` timestamps compared
through ``_key``; a history whose ``latest`` is a ``max`` over every
candidate it keeps; ``schedule`` re-validating through
``schedule_reserved`` and ``send`` through ``one_way_delay``. Every run
must match it byte for byte: the same records, utilizations, messages and
final clock, the same random draws in the same order, and the same FIFO
and tie order. The event count differs by exactly the formula in
:func:`_assert_same_run`. Any other difference is a bug, not rounding.
Each client writes its own object, so no quorum ever disagrees; both
paths raise if one does.
"""

import dataclasses
import heapq
import math
from collections import deque
from functools import partial, total_ordering

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.experiment as experiment_module
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ThresholdBalancedStrategy
from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.qu.objects import Candidate, ReplicaHistory
from repro.qu.service import QUService
from repro.qu.timestamps import QUTimestamp
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.engine import Simulator
from repro.sim.experiment import QUExperimentConfig, run_qu_experiment
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.metrics import OperationRecord
from repro.sim.network import SimNetwork


# ---------------------------------------------------------------------------
# Reference protocol state (total_ordering timestamps, max-scan histories)
# ---------------------------------------------------------------------------
def _key(ts):
    return (ts.time, ts.client_id, ts.op_seq)


@total_ordering
@dataclasses.dataclass(frozen=True)
class RefTimestamp:
    time: int = 0
    client_id: int = -1
    op_seq: int = -1

    def __lt__(self, other):
        if not isinstance(other, RefTimestamp):
            return NotImplemented
        return _key(self) < _key(other)

    def next_for(self, client_id, op_seq):
        return RefTimestamp(
            time=self.time + 1, client_id=client_id, op_seq=op_seq
        )

    @classmethod
    def zero(cls):
        return cls()


def _max_scan(candidates):
    return max(candidates, key=lambda c: _key(c.timestamp))


@dataclasses.dataclass
class RefHistory:
    """Every accepted candidate; ``latest`` scans them all (first of ties)."""

    candidates: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        if not self.candidates:
            self.candidates.append(
                Candidate(timestamp=RefTimestamp.zero(), value=0)
            )

    @property
    def latest(self):
        return _max_scan(self.candidates)

    def accept(self, candidate):
        self.candidates.append(candidate)

    def copy_latest(self):
        return RefHistory(candidates=[self.latest])


def _ref_classify(histories):
    latests = [h.latest for h in histories]
    top = _max_scan(latests)
    if all(_key(c.timestamp) == _key(top.timestamp) for c in latests):
        return "complete", top
    return "contended", top


# ---------------------------------------------------------------------------
# Reference engine (schedule via schedule_reserved, send via one_way_delay)
# ---------------------------------------------------------------------------
def _ref_schedule(self, delay, callback):
    if not math.isfinite(delay) or delay < 0:
        raise SimulationError(
            f"event delay must be finite and non-negative, got {delay}"
        )
    # The heap key ``schedule`` gives: now + delay, the next sequence number.
    self.schedule_reserved(self._now + delay, self.reserve(), callback)


def _ref_run(self, until=None, max_events=None):
    if until is None and max_events is None:
        raise SimulationError("run() needs a time bound or an event budget")
    processed = 0
    while self._heap:
        time, _, callback = self._heap[0]
        if until is not None and time > until:
            break
        heapq.heappop(self._heap)
        self._now = time
        callback()
        self._events_processed += 1
        processed += 1
        if max_events is not None and processed >= max_events:
            return
    if until is not None:
        self._now = max(self._now, until)


def _ref_send(self, src, dst, payload, on_delivery):
    delay = self.one_way_delay(src, dst)
    self.messages_sent += 1
    # A partial, as SimNetwork.send schedules: the generic simulator finds
    # the deliveries still on the wire at the horizon by their callback.
    self._sim.schedule(delay, partial(on_delivery, payload))


def _reference_engine(monkeypatch):
    monkeypatch.setattr(Simulator, "schedule", _ref_schedule)
    monkeypatch.setattr(Simulator, "run", _ref_run)
    monkeypatch.setattr(SimNetwork, "send", _ref_send)


# ---------------------------------------------------------------------------
# Reference Q/U path: every request and every reply is a message and an
# event of its own, with a request and a reply history copy per server
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class RefRequest:
    client_id: int
    op_seq: int
    object_id: int
    condition_on: object
    sent_at_ms: float
    arrived_at_ms: float = -1.0


@dataclasses.dataclass
class RefReply:
    server_id: int
    client_id: int
    op_seq: int
    accepted: bool
    history: RefHistory
    request_arrived_at_ms: float
    sent_at_ms: float


class RefServer:
    def __init__(self, server_id, node, sim, send_reply, service_time_ms):
        self.server_id = server_id
        self.node = node
        self._sim = sim
        self._send_reply = send_reply
        self._service_time_ms = service_time_ms
        self._queue = deque()
        self._busy = False
        self._store = {}
        self.requests_processed = 0
        self.busy_time_ms = 0.0

    def on_request(self, request):
        request.arrived_at_ms = self._sim.now
        self._queue.append(request)
        if not self._busy:
            self._start_next()

    def _start_next(self):
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request = self._queue.popleft()
        self.busy_time_ms += self._service_time_ms
        self._sim.schedule(
            self._service_time_ms, lambda: self._finish(request)
        )

    def _finish(self, request):
        history = self._store.get(request.object_id)
        if history is None:
            history = self._store[request.object_id] = RefHistory()
        latest = history.latest
        accepted = True
        if latest.timestamp <= request.condition_on:
            if latest.timestamp < request.condition_on:
                history.accept(
                    Candidate(
                        timestamp=request.condition_on,
                        value=request.op_seq - 1,
                    )
                )
            new_ts = request.condition_on.next_for(
                request.client_id, request.op_seq
            )
            history.accept(Candidate(timestamp=new_ts, value=request.op_seq))
        else:
            accepted = False
        self.requests_processed += 1
        reply = RefReply(
            server_id=self.server_id,
            client_id=request.client_id,
            op_seq=request.op_seq,
            accepted=accepted,
            history=history.copy_latest(),
            request_arrived_at_ms=request.arrived_at_ms,
            sent_at_ms=self._sim.now,
        )
        self._send_reply(reply, request.client_id)
        self._start_next()

    def utilization(self, elapsed_ms):
        return min(1.0, self.busy_time_ms / elapsed_ms)


class RefClient:
    def __init__(
        self, client_id, node, sim, send_request, rtt_to_server,
        n_servers, quorum_size, seed,
    ):
        self.client_id = client_id
        self.node = node
        self._sim = sim
        self._send_request = send_request
        self._server_rtt = [rtt_to_server(s) for s in range(n_servers)]
        self._n_servers = n_servers
        self._quorum_size = quorum_size
        self._rng = np.random.default_rng(seed)
        self.object_id = client_id
        self._op_seq = 0
        self._condition_on = RefTimestamp.zero()
        self._pending_quorum = []
        self._replies = {}
        self._issued_at_ms = 0.0
        self._running = False
        self.records = []
        self.replies_delivered = 0

    def start(self, initial_delay_ms=0.0):
        self._running = True
        self._sim.schedule(initial_delay_ms, self._issue)

    def stop(self):
        self._running = False

    def _issue(self):
        if not self._running:
            return
        now = self._sim.now
        self._op_seq += 1
        self._issued_at_ms = now
        self._pending_quorum = self._rng.choice(
            self._n_servers, size=self._quorum_size, replace=False
        ).tolist()
        self._replies = {}
        for server_id in self._pending_quorum:
            request = RefRequest(
                client_id=self.client_id,
                op_seq=self._op_seq,
                object_id=self.object_id,
                condition_on=self._condition_on,
                sent_at_ms=now,
            )
            self._send_request(request, server_id)

    def on_reply(self, reply):
        self.replies_delivered += 1
        if not self._running:
            return
        if reply.op_seq != self._op_seq:
            return
        if reply.server_id not in self._pending_quorum:
            return
        self._replies[reply.server_id] = reply
        if len(self._replies) == self._quorum_size:
            self._complete()

    def _complete(self):
        status, top = _ref_classify(
            [r.history for r in self._replies.values()]
        )
        all_accepted = all(r.accepted for r in self._replies.values())
        if status != "complete" or not all_accepted:
            raise SimulationError(f"client {self.client_id} contended")
        self._condition_on = top.timestamp
        self.records.append(
            OperationRecord(
                client_id=self.client_id,
                client_node=self.node,
                issued_at_ms=self._issued_at_ms,
                completed_at_ms=self._sim.now,
                network_delay_ms=max(
                    self._server_rtt[s] for s in self._pending_quorum
                ),
            )
        )
        self._issue()


class RefService(QUService):
    """:class:`QUService` on the reference server, client and routing.

    ``run``, ``all_records`` and ``server_utilizations`` are inherited:
    they read only what both paths keep.
    """

    def __init__(
        self, topology, server_nodes, quorum_size, service_time_ms=1.0,
        seed=0,
    ):
        super().__init__(
            topology, server_nodes, quorum_size,
            service_time_ms=service_time_ms, seed=seed,
        )
        self.servers = [
            RefServer(
                s.server_id, s.node, self.sim, self._route_reply,
                service_time_ms,
            )
            for s in self.servers
        ]

    def _route_request(self, request, server_id):
        server = self.servers[server_id]
        client = self.clients[request.client_id]
        self.network.send(
            client.node, server.node, request, server.on_request
        )

    def _route_reply(self, reply, client_id):
        client = self.clients[client_id]
        server = self.servers[reply.server_id]
        self.network.send(server.node, client.node, reply, client.on_reply)

    def add_client(self, node):
        client_id = len(self.clients)
        server_nodes = [s.node for s in self.servers]
        client = RefClient(
            client_id=client_id,
            node=int(node),
            sim=self.sim,
            send_request=self._route_request,
            rtt_to_server=lambda sid: self.topology.distance(
                int(node), server_nodes[sid]
            ),
            n_servers=len(self.servers),
            quorum_size=self.quorum_size,
            seed=self._seed * 100_003 + 7919 * client_id,
        )
        self.clients.append(client)
        return client


def _reference_qu(monkeypatch):
    _reference_engine(monkeypatch)
    monkeypatch.setattr(experiment_module, "QUService", RefService)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------
_RECORD_FIELDS = [f.name for f in dataclasses.fields(OperationRecord)]


def _record_bytes(records):
    return {
        name: np.asarray([getattr(r, name) for r in records]).tobytes()
        for name in _RECORD_FIELDS
    }


def _assert_identical(actual, expected, path="result"):
    if dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), path
        for f in dataclasses.fields(expected):
            _assert_identical(
                getattr(actual, f.name),
                getattr(expected, f.name),
                f"{path}.{f.name}",
            )
    elif isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, path
        assert actual.shape == expected.shape, path
        assert actual.tobytes() == expected.tobytes(), path
    elif isinstance(expected, float):
        actual_bits = np.float64(actual).tobytes()
        assert actual_bits == np.float64(expected).tobytes(), path
    else:
        assert actual == expected, path


def _spy_services(monkeypatch):
    services = []
    original = QUService.run

    def run(self, *args, **kwargs):
        services.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(QUService, "run", run)
    return services


def _service_outcome(service):
    return (
        np.float64(service.sim.now).tobytes(),
        service.network.messages_sent,
        _record_bytes(service.all_records()),
        service.server_utilizations().tobytes(),
    )


def _assert_same_run(new, ref):
    """``new`` and the reference ``ref`` ran the same simulation.

    Everything but the event count is byte-equal. The reference processed
    one event per reply delivery; ``new`` processes none of those and one
    completion event per finished attempt instead, which is a recorded
    operation.
    """
    assert _service_outcome(new) == _service_outcome(ref)
    replies = sum(c.replies_delivered for c in ref.clients)
    attempts = sum(c.operations_completed for c in new.clients)
    assert new.sim.events_processed == (
        ref.sim.events_processed - replies + attempts
    )


# ---------------------------------------------------------------------------
# Timestamp ordering
# ---------------------------------------------------------------------------
_GRID = [
    QUTimestamp(time=t, client_id=c, op_seq=s)
    for t in (0, 1, 2)
    for c in (-1, 0, 3)
    for s in (-1, 2)
]


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a < b,
        lambda a, b: a <= b,
        lambda a, b: a > b,
        lambda a, b: a >= b,
        lambda a, b: a == b,
        lambda a, b: a != b,
    ],
    ids=["lt", "le", "gt", "ge", "eq", "ne"],
)
def test_timestamp_order_matches_key(op):
    for a in _GRID:
        for b in _GRID:
            assert op(a, b) == op(_key(a), _key(b)), (a, b)
            assert op(a, b) == op(_as_ref(a), _as_ref(b)), (a, b)


def _as_ref(ts):
    return RefTimestamp(ts.time, ts.client_id, ts.op_seq)


def test_timestamp_max_and_sort_match_key():
    shuffled = list(reversed(_GRID))
    assert sorted(shuffled) == sorted(shuffled, key=_key)
    assert max(shuffled) is max(shuffled, key=_key)


def test_timestamp_hash_and_next_for_unchanged():
    ts = QUTimestamp(time=4, client_id=2, op_seq=9)
    assert hash(ts) == hash(QUTimestamp(4, 2, 9))
    assert ts.next_for(5, 11) == QUTimestamp(5, 5, 11)
    assert QUTimestamp.zero() == QUTimestamp(0, -1, -1)
    with pytest.raises(TypeError):
        _ = ts < (4, 2, 9)


# ---------------------------------------------------------------------------
# ReplicaHistory: the kept latest == the max-scan over every candidate
# ---------------------------------------------------------------------------
_SMALL_TS = st.builds(
    QUTimestamp,
    time=st.integers(0, 3),
    client_id=st.integers(0, 2),
    op_seq=st.integers(0, 1),
)


def _check_history_ops(history_cls, stamps):
    """Accept one candidate per timestamp in ``history_cls`` and in the
    reference that keeps every candidate: after every step ``latest``
    must be the very object the reference's max-scan returns."""
    history = history_cls()
    reference = RefHistory(candidates=[history.latest])
    for step, stamp in enumerate(stamps):
        candidate = Candidate(timestamp=stamp, value=step)
        history.accept(candidate)
        reference.accept(candidate)
        assert history.latest is reference.latest


@settings(max_examples=200, deadline=None)
@given(stamps=st.lists(_SMALL_TS, max_size=60))
def test_history_latest_is_max_scan_object(stamps):
    _check_history_ops(ReplicaHistory, stamps)


def test_fresh_history_starts_at_zero():
    assert ReplicaHistory().latest == Candidate(QUTimestamp.zero(), 0)


_TIED = QUTimestamp(time=1, client_id=0, op_seq=0)


def test_equal_timestamps_keep_first_candidate():
    history = ReplicaHistory()
    first, second = Candidate(_TIED, 1), Candidate(_TIED, 2)
    history.accept(first)
    history.accept(second)
    assert history.latest is first
    _check_history_ops(ReplicaHistory, [_TIED, _TIED])


class _GreaterEqualMutant(ReplicaHistory):
    """``accept`` with ``>=``: the last of tied candidates wins."""

    def accept(self, candidate):
        if candidate.timestamp >= self.latest.timestamp:
            self.latest = candidate


def test_greater_equal_mutant_is_caught():
    with pytest.raises(AssertionError):
        _check_history_ops(_GreaterEqualMutant, [_TIED, _TIED])


# ---------------------------------------------------------------------------
# End to end: records, event counts and random draws match the reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "t,clients_per_site", [(1, 2), (1, 10), (3, 2), (3, 10)]
)
def test_run_qu_experiment_bit_identical(
    planetlab, monkeypatch, t, clients_per_site
):
    config = QUExperimentConfig(
        t=t, clients_per_site=clients_per_site, duration_ms=600.0,
        warmup_ms=100.0, seed=5,
    )
    services = _spy_services(monkeypatch)
    actual = run_qu_experiment(planetlab, config)
    with monkeypatch.context() as patch:
        _reference_qu(patch)
        expected = run_qu_experiment(planetlab, config)
    new, ref = services
    assert type(ref) is RefService
    _assert_same_run(new, ref)
    assert new.sim.events_processed > 0
    _assert_identical(actual, expected)


# ---------------------------------------------------------------------------
# Tie-heavy topologies: integer delays make events coincide exactly, so
# the FIFO order and the tie order by sequence number are on the path
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Scenario:
    points: tuple  # grid position of each node
    servers: tuple  # distinct server nodes
    quorum_size: int
    sites: tuple  # client sites, repeats and server nodes allowed
    clients_per_site: int
    seed: int
    duration_ms: float = 150.0

    def topology(self):
        """RTT = 2 x Manhattan distance: integer one-way delays, and zero
        between nodes on the same grid point."""
        xy = np.asarray(self.points, dtype=np.float64)
        manhattan = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
        return Topology(2.0 * manhattan, metric_closure=False)


def _run_scenario(scenario, service_cls):
    service = service_cls(
        scenario.topology(), np.asarray(scenario.servers),
        quorum_size=scenario.quorum_size, seed=scenario.seed,
    )
    for site in scenario.sites:
        for _ in range(scenario.clients_per_site):
            service.add_client(site)
    service.run(duration_ms=scenario.duration_ms)
    return service


def _check_scenario(scenario):
    new = _run_scenario(scenario, QUService)
    with pytest.MonkeyPatch.context() as patch:
        _reference_engine(patch)
        ref = _run_scenario(scenario, RefService)
    _assert_same_run(new, ref)


@st.composite
def _tie_heavy_scenarios(draw):
    n_nodes = draw(st.integers(2, 7))
    cell = st.tuples(st.integers(0, 2), st.integers(0, 2))
    points = draw(st.lists(cell, min_size=n_nodes, max_size=n_nodes))
    servers = draw(
        st.lists(
            st.integers(0, n_nodes - 1),
            min_size=1, max_size=min(n_nodes, 5), unique=True,
        )
    )
    # Half the sites sit on a server node: zero-delay legs.
    site = st.one_of(
        st.sampled_from(servers), st.integers(0, n_nodes - 1)
    )
    return _Scenario(
        points=tuple(points),
        servers=tuple(servers),
        quorum_size=draw(st.integers(1, len(servers))),
        sites=tuple(draw(st.lists(site, min_size=1, max_size=3))),
        clients_per_site=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=120, deadline=None)
@given(scenario=_tie_heavy_scenarios())
def test_tie_heavy_topologies_bit_identical(scenario):
    _check_scenario(scenario)


#: Pushing the completion under a fresh sequence number at the last
#: service completion, instead of the one its last reply reserved,
#: diverges here: every server node is also a client site, and a
#: completion ties with events scheduled between the two.
_FRESH_SEQUENCE_DIVERGES = _Scenario(
    points=((1, 1), (0, 1), (2, 1), (1, 1), (1, 1), (2, 0)),
    servers=(1, 2, 4),
    quorum_size=2,
    sites=(1, 2, 4),
    clients_per_site=3,
    seed=0,
)


def test_completion_keeps_the_last_reply_tie_order():
    _check_scenario(_FRESH_SEQUENCE_DIVERGES)


def _generic_run(line_topology):
    placed = PlacedQuorumSystem(
        ThresholdQuorumSystem(5, 3), Placement([0, 2, 4, 6, 8]), line_topology
    )
    simulation = GenericQuorumSimulation(
        placed,
        ThresholdBalancedStrategy(),
        client_nodes=np.array([0, 3, 5, 9]),
        service_time_ms=1.0,
        seed=7,
        collect_telemetry=True,
    )
    result = simulation.run(duration_ms=3000.0, warmup_ms=100.0)
    records = [r for c in simulation.clients for r in c.records]
    return simulation, result, records


def test_generic_events_backend_bit_identical(line_topology, monkeypatch):
    """The generic backend pays one event per message: its event count,
    draws and records must equal the reference engine's exactly."""
    new, new_result, new_records = _generic_run(line_topology)
    assert new_result.operations_completed > 0
    assert new_result.telemetry.counts.sum() > 0
    with monkeypatch.context() as patch:
        _reference_engine(patch)
        ref, ref_result, ref_records = _generic_run(line_topology)
    assert new.sim.events_processed == ref.sim.events_processed
    assert new.network.messages_sent == ref.network.messages_sent
    assert _record_bytes(new_records) == _record_bytes(ref_records)
    _assert_identical(new_result, ref_result)


def test_schedule_matches_schedule_reserved_validation():
    """The inline push in ``schedule`` accepts and rejects exactly what
    ``schedule_reserved(now + delay, reserve())`` does, at the same heap
    key."""
    for delay in (0.0, 1e-300, 2.5, 1e300, -0.0):
        new, ref = Simulator(), Simulator()
        new.schedule(delay, lambda: None)
        _ref_schedule(ref, delay, lambda: None)
        assert new._heap[0][:2] == ref._heap[0][:2]
    for delay in (-1e-300, -1.0, math.inf, -math.inf, math.nan):
        for schedule in (Simulator.schedule, _ref_schedule):
            sim = Simulator()
            with pytest.raises(SimulationError):
                schedule(sim, delay, lambda: None)
            assert sim.pending_events == 0
