"""A Q/U deployment on a topology inside the simulator.

:class:`QUService` places ``n`` servers at the nodes of a placement's
support set and any number of clients at chosen nodes, all request/reply
traffic crossing the emulated WAN with ``d(v, w) / 2`` one-way delays. It
is the simulated equivalent of the paper's Modelnet deployment: servers
at placement nodes, ``c`` clients at each of the selected client sites.

**Servers.** The paper's testbed charges "1 ms of application processing
delay per client request at each server"; each server is a single
serving unit with a deterministic service time and a FIFO queue, which is
what produces the queueing growth of Figures 3.1/3.2 as client demand
rises. A server keeps, per object, the latest version it accepted: a
``(timestamp, value)`` pair. It accepts a write conditioned on a version
no older than its latest: a server that missed intervening updates adopts
the conditioned-on version inline (Q/U's single-round-trip catch-up)
before the new one, which supersedes it. It rejects a write conditioned
on an older version. Either way it replies with its latest version.

**Clients.** Each client runs a closed loop (the next operation issues the
moment the previous one completes) and chooses its quorum **uniformly at
random** among all ``q``-subsets of the ``n`` servers ("thereby balancing
client demand across servers"). As in the paper's measurements, each
client writes its own object (its object id is its client id), so every
operation completes in a single round trip: the next one is conditioned on
the version the last one created, which no other client touches. A
rejected condition or a quorum that disagrees on the latest version would
need Q/U's contention resolution, which is out of scope: the run raises
:class:`~repro.errors.SimulationError` naming the client instead.

**Timestamps** are ``(time, client_id, op_seq)`` tuples: the logical
clock, then the (client, operation) pair that makes them unique. Tuples
compare lexicographically, so their native order is the protocol's total
order. The barrier flag of Q/U's repair protocol and the hashes that only
serve Byzantine verification are not modelled.

**Events.** The protocol state is flat: per-server and per-client lists
indexed by server or client id, read and written by the event handlers
(``issue``, each server's ``deliver`` and ``finish``, and ``complete``),
whose argument is a client id. An attempt on a quorum of ``q``
servers costs ``2q + 1`` events: ``q`` request deliveries, ``q`` service
completions and one completion at the client. A reply is not an event:
when a server sends it, its arrival time and the sequence number its
delivery would have had (:meth:`~repro.sim.engine.Simulator.reserve`) are
filed with the client, and the attempt completes in one event pushed at
the largest ``(arrival, slot)`` key among its ``q`` replies, exactly where
its last reply delivery would have fired.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.sim.engine import Simulator
from repro.sim.metrics import OperationRecord
from repro.sim.network import check_nodes

__all__ = ["QUService"]

#: Clients start at uniform random offsets within this window.
START_STAGGER_MS = 1.0
#: The version every object starts from: the zero timestamp, value 0.
ZERO_VERSION = ((0, -1, -1), 0)


class QUService:
    """A Q/U deployment: servers, clients, and the simulated WAN.

    Servers are numbered in ``server_nodes`` order and clients in the
    order :meth:`add_client` adds them. A service runs once.
    """

    def __init__(
        self,
        topology: Topology,
        server_nodes: np.ndarray,
        quorum_size: int,
        service_time_ms: float = 1.0,
        seed: int = 0,
    ) -> None:
        server_nodes = np.asarray(server_nodes, dtype=np.intp)
        if server_nodes.size == 0:
            raise SimulationError("at least one server node is required")
        check_nodes(topology, server_nodes.tolist(), "server")
        if len(np.unique(server_nodes)) != server_nodes.size:
            raise SimulationError("server nodes must be distinct")
        if not 1 <= quorum_size <= server_nodes.size:
            raise SimulationError(
                f"quorum size {quorum_size} invalid for "
                f"{server_nodes.size} servers"
            )
        if service_time_ms < 0:
            raise SimulationError("service time must be non-negative")
        self.sim = Simulator()
        self.topology = topology
        self.quorum_size = quorum_size
        self._service_time_ms = service_time_ms
        self._seed = seed
        self._ran = False
        self.server_nodes: list[int] = server_nodes.tolist()
        n_servers = len(self.server_nodes)

        # Per server: the FIFO of client ids waiting for service, whether a
        # request is in service, the accumulated service time, the requests
        # served, each object's latest version, and the one-way reply
        # delay to each client.
        self._queues: list[deque[int]] = [deque() for _ in range(n_servers)]
        self._busy = [False] * n_servers
        self.busy_time_ms = [0.0] * n_servers
        self.requests_processed = [0] * n_servers
        self._versions: list[list[tuple]] = [[] for _ in range(n_servers)]
        self._reply_delays: list[list[float]] = [
            [] for _ in range(n_servers)
        ]

        # Per client: its node, quorum generator, RTT and one-way request
        # delay to each server; its last operation's sequence number and
        # the timestamp its next write is conditioned on; the current
        # attempt's quorum, candidate version, replies filed, first reply's
        # latest version, whether every reply so far accepted and agreed
        # with it, the (arrival, slot) key of its last reply, and its
        # issue time; and the completed operations' records.
        self.client_nodes: list[int] = []
        self._rngs: list[np.random.Generator] = []
        self._server_rtts: list[list[float]] = []
        self._request_delays: list[list[float]] = []
        self._op_seqs: list[int] = []
        self._conditions: list[tuple] = []
        self._quorums: list[list[int]] = []
        self._candidates: list[tuple] = []
        self._replies: list[int] = []
        self._first_latests: list[tuple] = []
        self._agreed: list[bool] = []
        self._last_replies: list[tuple[float, int]] = []
        self._issued_at_ms: list[float] = []
        self.records: list[list[OperationRecord]] = []

        self._issue = self._handlers()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _handlers(self) -> Callable[[int], None]:
        """Build the event handlers over the flat state; return ``issue``.

        Every handler takes a client id. ``issue`` starts the client's next
        attempt; server ``s``'s ``deliver`` and ``finish`` handle a request
        reaching it and its service completing; ``complete`` ends the
        attempt once its last reply has arrived.
        """
        sim = self.sim
        schedule = sim.schedule
        reserve = sim.reserve
        schedule_reserved = sim.schedule_reserved
        n_servers = len(self.server_nodes)
        quorum_size = self.quorum_size
        service_time = self._service_time_ms
        busy = self._busy
        busy_time = self.busy_time_ms
        processed = self.requests_processed
        client_nodes = self.client_nodes
        rngs = self._rngs
        server_rtts = self._server_rtts
        request_delays = self._request_delays
        op_seqs = self._op_seqs
        conditions = self._conditions
        quorums = self._quorums
        candidates = self._candidates
        replies = self._replies
        first_latests = self._first_latests
        agreed = self._agreed
        last_replies = self._last_replies
        issued_at = self._issued_at_ms
        records = self.records

        def issue(client: int) -> None:
            op_seq = op_seqs[client] + 1
            op_seqs[client] = op_seq
            issued_at[client] = sim.now
            quorum = quorums[client] = (
                rngs[client]
                .choice(n_servers, size=quorum_size, replace=False)
                .tolist()
            )
            candidates[client] = (
                (conditions[client][0] + 1, client, op_seq),
                op_seq,
            )
            replies[client] = 0
            delays = request_delays[client]
            for server in quorum:
                schedule(delays[server], deliver[server], client)

        def complete(client: int) -> None:
            if not agreed[client]:
                raise SimulationError(
                    f"client {client}: a quorum server rejected the "
                    "operation's condition or the quorum disagreed on the "
                    f"latest version of object {client}; each client "
                    "writes its own object, so no write may contend"
                )
            conditions[client] = first_latests[client][0]
            # The paper's network delay of a quorum access: the largest
            # RTT to the accessed quorum (equation (4.1) with alpha = 0),
            # exact even when server queueing delayed the last reply.
            rtt = server_rtts[client]
            network_delay = max(map(rtt.__getitem__, quorums[client]))
            records[client].append(
                OperationRecord(
                    client_id=client,
                    client_node=client_nodes[client],
                    issued_at_ms=issued_at[client],
                    completed_at_ms=sim.now,
                    network_delay_ms=network_delay,
                )
            )
            issue(client)

        def deliver_to(server: int) -> Callable[[int], None]:
            """Server ``server``'s ``deliver``, which schedules its
            ``finish``."""
            queue = self._queues[server]
            versions = self._versions[server]
            reply_delays = self._reply_delays[server]

            def deliver(client: int) -> None:
                if busy[server]:
                    queue.append(client)
                else:
                    busy[server] = True
                    busy_time[server] += service_time
                    schedule(service_time, finish, client)

            def finish(client: int) -> None:
                latest = versions[client]
                accepted = latest[0] <= conditions[client]
                if accepted:
                    # Catch-up to the conditioned-on version, then the
                    # candidate, which is newer still: only it stays.
                    latest = versions[client] = candidates[client]
                processed[server] += 1
                # The reply: filed with the client under the arrival time
                # and sequence number its delivery event would have had.
                key = (sim.now + reply_delays[client], reserve())
                filed = replies[client]
                if filed == 0:
                    first_latests[client] = latest
                    agreed[client] = accepted
                    last_replies[client] = key
                else:
                    if not accepted or latest[0] != first_latests[client][0]:
                        agreed[client] = False
                    # Slots grow in filing order, so a tied arrival time
                    # makes the later reply the larger key.
                    if key > last_replies[client]:
                        last_replies[client] = key
                filed += 1
                replies[client] = filed
                if filed == quorum_size:
                    time, slot = last_replies[client]
                    schedule_reserved(time, slot, complete, client)
                if queue:
                    busy_time[server] += service_time
                    schedule(service_time, finish, queue.popleft())
                else:
                    busy[server] = False

            return deliver

        deliver = [deliver_to(server) for server in range(n_servers)]
        return issue

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_client(self, node: int) -> int:
        """Add a client at a topology node and return its id; it writes
        its own object, whose id is the client id."""
        node = int(node)
        check_nodes(self.topology, [node], "client")
        client = len(self.client_nodes)
        distance = self.topology.distance
        rtts = [distance(node, server) for server in self.server_nodes]
        self.client_nodes.append(node)
        self._rngs.append(
            np.random.default_rng(self._seed * 100_003 + 7919 * client)
        )
        self._server_rtts.append(rtts)
        self._request_delays.append([rtt / 2.0 for rtt in rtts])
        for server, server_node in enumerate(self.server_nodes):
            self._versions[server].append(ZERO_VERSION)
            self._reply_delays[server].append(
                distance(server_node, node) / 2.0
            )
        self._op_seqs.append(0)
        self._conditions.append(ZERO_VERSION[0])
        self._quorums.append([])
        self._candidates.append(ZERO_VERSION)
        self._replies.append(0)
        self._first_latests.append(ZERO_VERSION)
        self._agreed.append(True)
        self._last_replies.append((-math.inf, -1))
        self._issued_at_ms.append(0.0)
        self.records.append([])
        return client

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_ms: float) -> None:
        """Start every client (staggered) and run for ``duration_ms``.

        A service runs once: its clients' closed loops cannot resume where
        they stopped, so a second call raises.
        """
        if self._ran:
            raise SimulationError(
                "this QUService has already run; build a new one to run "
                "again"
            )
        if not self.client_nodes:
            raise SimulationError("no clients to run")
        self._ran = True
        rng = np.random.default_rng(self._seed)
        for client in range(len(self.client_nodes)):
            self.sim.schedule(
                float(rng.uniform(0.0, START_STAGGER_MS)), self._issue, client
            )
        self.sim.run(until=duration_ms)

    @property
    def messages_sent(self) -> int:
        """Requests and replies sent so far: ``q`` requests per attempt
        issued and one reply per request served."""
        return self.quorum_size * sum(self._op_seqs) + sum(
            self.requests_processed
        )

    def all_records(self) -> list[OperationRecord]:
        """Completed-operation records across every client."""
        return [record for records in self.records for record in records]

    def server_utilizations(self) -> np.ndarray:
        """Per-server busy fraction over the elapsed simulation time."""
        elapsed = self.sim.now
        if elapsed <= 0:
            raise SimulationError("service has not run yet")
        return np.asarray(
            [min(1.0, busy / elapsed) for busy in self.busy_time_ms]
        )
