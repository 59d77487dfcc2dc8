"""Bit-identity of the Q/U event path against the formulation it replaced.

The Section-3 Q/U simulation pays a few cheap Python operations per
event, and as few events and objects per operation as the protocol
allows. :class:`~repro.qu.service.QUService` keeps the protocol state in
flat per-server and per-client lists; an event is ``(time, sequence,
handler, arg)`` with a client id as its argument. One attempt on a quorum
of ``q`` servers builds one candidate version, a ``(timestamp, value)``
tuple the ``q`` servers share, and costs ``2q + 1`` events: ``q`` request
deliveries, ``q`` service completions and one completion at the client,
pushed under the sequence number the reply that arrives last reserved
when it was sent (:meth:`Simulator.reserve`). Timestamps are
``(time, client_id, op_seq)`` tuples ordered natively; each server keeps
only each object's latest version; :meth:`Simulator.schedule` pushes onto
the heap directly, and the one-way delays between each client and each
server are read from rows computed when the client is added.

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
from functools import total_ordering

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.experiment as experiment_module
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ThresholdBalancedStrategy
from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.qu.service import START_STAGGER_MS, ZERO_VERSION, QUService
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


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One object version: a timestamp and an opaque value token."""

    timestamp: RefTimestamp
    value: int


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
def _ref_schedule(self, delay, handler, arg):
    if not math.isfinite(delay) or delay < 0:
        raise SimulationError(
            f"event delay must be finite and non-negative, got {delay}"
        )
    # The heap key ``schedule`` gives: now + delay, the next sequence number.
    self.schedule_reserved(self._now + delay, self.reserve(), handler, arg)


def _ref_run(self, until=None, max_events=None):
    if until is None and max_events is None:
        raise SimulationError("run() needs a time bound or an event budget")
    processed = 0
    while self._heap:
        time, _, handler, arg = self._heap[0]
        if until is not None and time > until:
            break
        heapq.heappop(self._heap)
        self._now = time
        handler(arg)
        self._events_processed += 1
        processed += 1
        if max_events is not None and processed >= max_events:
            return
    if until is not None:
        self._now = max(self._now, until)


def _ref_send(self, src, dst, handler, arg):
    delay = self.one_way_delay(src, dst)
    self.messages_sent += 1
    # The handler as given, as SimNetwork.send schedules it: the generic
    # simulator finds the deliveries still on the wire at the horizon by
    # their handler.
    self._sim.schedule(delay, handler, arg)


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
        self._sim.schedule(self._service_time_ms, self._finish, request)

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
        self._sim.schedule(initial_delay_ms, self._issue, None)

    def stop(self):
        self._running = False

    def _issue(self, _arg=None):
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


class RefService:
    """The event-per-message Q/U service: the reference servers and
    clients routed over a :class:`SimNetwork`, with the constructor,
    ``add_client``, ``run``, ``messages_sent``, ``all_records`` and
    ``server_utilizations`` of :class:`QUService`."""

    def __init__(
        self, topology, server_nodes, quorum_size, service_time_ms=1.0,
        seed=0,
    ):
        self.sim = Simulator()
        self.topology = topology
        self.network = SimNetwork(self.sim, topology)
        self.quorum_size = quorum_size
        self._seed = seed
        self.servers = [
            RefServer(
                i, int(node), self.sim, self._route_reply, service_time_ms
            )
            for i, node in enumerate(np.asarray(server_nodes))
        ]
        self.clients = []

    def _route_request(self, request, server_id):
        server = self.servers[server_id]
        client = self.clients[request.client_id]
        self.network.send(
            client.node, server.node, server.on_request, request
        )

    def _route_reply(self, reply, client_id):
        client = self.clients[client_id]
        server = self.servers[reply.server_id]
        self.network.send(server.node, client.node, client.on_reply, reply)

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

    def run(self, duration_ms):
        rng = np.random.default_rng(self._seed)
        for client in self.clients:
            client.start(
                initial_delay_ms=float(rng.uniform(0.0, START_STAGGER_MS))
            )
        self.sim.run(until=duration_ms)
        for client in self.clients:
            client.stop()

    @property
    def messages_sent(self):
        return self.network.messages_sent

    def all_records(self):
        records = []
        for client in self.clients:
            records.extend(client.records)
        return records

    def server_utilizations(self):
        elapsed = self.sim.now
        return np.asarray([s.utilization(elapsed) for s in self.servers])


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
    """Record every service that runs, new or reference, in run order."""
    services = []
    for service_cls in (QUService, RefService):

        def run(self, *args, _original=service_cls.run, **kwargs):
            services.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(service_cls, "run", run)
    return services


def _service_outcome(service):
    return (
        np.float64(service.sim.now).tobytes(),
        service.messages_sent,
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
    attempts = len(new.all_records())
    assert new.sim.events_processed == (
        ref.sim.events_processed - replies + attempts
    )


# ---------------------------------------------------------------------------
# Timestamp ordering: the service's tuples order as the reference's
# timestamps do
# ---------------------------------------------------------------------------
_GRID = [(t, c, s) for t in (0, 1, 2) for c in (-1, 0, 3) for s in (-1, 2)]


def _as_ref(ts):
    return RefTimestamp(*ts)


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
            assert op(a, b) == op(_as_ref(a), _as_ref(b)), (a, b)


def test_timestamp_max_and_sort_match_key():
    shuffled = list(reversed(_GRID))
    refs = [_as_ref(ts) for ts in shuffled]
    assert sorted(shuffled) == [dataclasses.astuple(r) for r in sorted(refs)]
    assert max(shuffled) == dataclasses.astuple(max(refs, key=_key))


def test_successor_timestamps_match_next_for(planetlab):
    """Every write carries ``condition.next_for(client, op_seq)`` of the
    reference and value ``op_seq``, conditioned on the version the last
    write created: after a run, the version a server holds for client
    ``c``'s object is ``RefTimestamp.zero().next_for`` applied ``k``
    times, with value ``k``."""
    assert ZERO_VERSION == (dataclasses.astuple(RefTimestamp.zero()), 0)
    service = QUService(planetlab, np.arange(6), quorum_size=5, seed=3)
    for node in (7, 9, 11):
        service.add_client(node)
    service.run(duration_ms=300.0)
    for versions in service._versions:
        for client, (timestamp, value) in enumerate(versions):
            expected = RefTimestamp.zero()
            for op_seq in range(1, value + 1):
                expected = expected.next_for(client, op_seq)
            assert timestamp == dataclasses.astuple(expected)
    assert min(v for versions in service._versions for _, v in versions) > 1


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
    return new, ref


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


# ---------------------------------------------------------------------------
# Replica histories: the version each server keeps per object == the
# reference's max-scan over every candidate it accepted
# ---------------------------------------------------------------------------
def _as_version(candidate):
    """A reference candidate as the ``(timestamp, value)`` tuple the
    service keeps."""
    return (dataclasses.astuple(candidate.timestamp), candidate.value)


@settings(max_examples=60, deadline=None)
@given(scenario=_tie_heavy_scenarios())
def test_history_latest_is_max_scan_object(scenario):
    new, ref = _check_scenario(scenario)
    for server, ref_server in enumerate(ref.servers):
        for client in range(len(ref.clients)):
            history = ref_server._store.get(client, RefHistory())
            assert new._versions[server][client] == _as_version(
                history.latest
            ), (server, client)


def test_fresh_history_starts_at_zero(line_topology):
    service = QUService(line_topology, np.array([0, 4, 9]), quorum_size=2)
    for node in (1, 5):
        service.add_client(node)
    zero = _as_version(RefHistory().latest)
    assert service._versions == [[zero, zero]] * 3


#: The timestamp client 0's first write creates.
_TIED = RefTimestamp(time=1, client_id=0, op_seq=1)


def _tied_server_run(line_topology):
    """Client 0's first write, to three servers that hold the zero version
    except server 0: it already holds another candidate with the
    timestamp that write creates, so it rejects the write and the run
    raises. Returns the service as the error left it."""
    service = QUService(line_topology, np.array([0, 4, 9]), quorum_size=3)
    service.add_client(2)
    service._versions[0][0] = _as_version(Candidate(_TIED, -7))
    with pytest.raises(SimulationError, match="client 0"):
        service.run(duration_ms=100.0)
    return service


def test_equal_timestamps_keep_first_candidate(line_topology):
    """A server's version is replaced only by a newer one: server 0 keeps
    the first of two candidates with equal timestamps, the one the
    reference's max-scan over both picks, while servers 1 and 2 took the
    write."""
    service = _tied_server_run(line_topology)
    first, second = Candidate(_TIED, -7), Candidate(_TIED, 1)
    reference = RefHistory(candidates=[first, second])
    assert reference.latest is first
    assert [versions[0] for versions in service._versions] == [
        _as_version(first),
        _as_version(second),
        _as_version(second),
    ]


class _LastOfTiesHistory(RefHistory):
    """A history whose latest is the last of tied candidates: what an
    ``accept`` on ``>=`` would keep."""

    @property
    def latest(self):
        top = _key(_max_scan(self.candidates).timestamp)
        return [c for c in self.candidates if _key(c.timestamp) == top][-1]


def test_greater_equal_mutant_is_caught(line_topology):
    """The check above tells first-of-ties from last-of-ties: a server
    that let the tied write replace its candidate would hold the
    mutant's latest instead."""
    service = _tied_server_run(line_topology)
    first, second = Candidate(_TIED, -7), Candidate(_TIED, 1)
    mutant = _LastOfTiesHistory(candidates=[first, second])
    assert mutant.latest is second
    assert service._versions[0][0] != _as_version(mutant.latest)


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
        new.schedule(delay, print, None)
        _ref_schedule(ref, delay, print, None)
        assert new._heap[0][:2] == ref._heap[0][:2]
    for delay in (-1e-300, -1.0, math.inf, -math.inf, math.nan):
        for schedule in (Simulator.schedule, _ref_schedule):
            sim = Simulator()
            with pytest.raises(SimulationError):
                schedule(sim, delay, print, None)
            assert sim.pending_events == 0
