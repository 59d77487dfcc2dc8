"""Q/U client: closed-loop conditioned operations against random quorums.

Matching the paper's workload: each client runs a closed loop (next
operation issues the moment the previous one completes), chooses its quorum
**uniformly at random** among all ``q``-subsets of the ``n`` servers
("thereby balancing client demand across servers"), and issues conditioned
writes that complete in a single round trip.

Each client writes its own object (its object id is its client id),
exactly like the paper's measurements, so every operation stays on the
single-round-trip path: the next operation is conditioned on the version
the last one created, which no other client touches. A rejected condition
or a quorum that disagrees on the latest version would need Q/U's
contention resolution, which is out of scope; the client raises
:class:`~repro.errors.SimulationError` instead.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.qu.messages import QURequest
from repro.qu.objects import Candidate
from repro.qu.timestamps import QUTimestamp
from repro.sim.engine import Simulator
from repro.sim.metrics import OperationRecord

__all__ = ["QUClient"]


class QUClient:
    """One closed-loop Q/U client bound to a topology node.

    ``send_request(request, quorum)`` sends one attempt's request to the
    servers listed in ``quorum``.
    """

    def __init__(
        self,
        client_id: int,
        node: int,
        sim: Simulator,
        send_request: Callable[[QURequest, list[int]], None],
        rtt_to_server: Callable[[int], float],
        n_servers: int,
        quorum_size: int,
        seed: int,
    ) -> None:
        if not 1 <= quorum_size <= n_servers:
            raise SimulationError(
                f"quorum size {quorum_size} invalid for {n_servers} servers"
            )
        self.client_id = client_id
        self.node = node
        self._sim = sim
        self._send_request = send_request
        # RTT to every server, read once per completed operation.
        self._server_rtt = [rtt_to_server(s) for s in range(n_servers)]
        self._n_servers = n_servers
        self._quorum_size = quorum_size
        self._rng = np.random.default_rng(seed)
        self.object_id = client_id

        self._op_seq = 0
        self._condition_on = QUTimestamp.zero()
        self._pending_quorum: list[int] = []
        # The current attempt's replies: each server's latest candidate,
        # whether any server rejected, and the (time, slot) key under
        # which the last reply arrives.
        self._latests: list[Candidate] = []
        self._rejected = False
        self._done_at_ms = -math.inf
        self._done_slot = -1
        self._issued_at_ms = 0.0
        self._running = False
        self.records: list[OperationRecord] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, initial_delay_ms: float = 0.0) -> None:
        """Begin the closed loop after an optional stagger delay."""
        if self._running:
            raise SimulationError("client already started")
        self._running = True
        self._sim.schedule(initial_delay_ms, self._issue)

    def stop(self) -> None:
        """Stop issuing new operations (in-flight attempts are ignored)."""
        self._running = False

    # ------------------------------------------------------------------
    # Operation issue / completion
    # ------------------------------------------------------------------
    def _pick_quorum(self) -> list[int]:
        chosen = self._rng.choice(
            self._n_servers, size=self._quorum_size, replace=False
        )
        return chosen.tolist()

    def _issue(self) -> None:
        if not self._running:
            return
        self._op_seq += 1
        self._issued_at_ms = self._sim.now
        self._pending_quorum = self._pick_quorum()
        self._latests = []
        self._rejected = False
        self._done_at_ms = -math.inf
        op_seq = self._op_seq
        condition_on = self._condition_on
        request = QURequest(
            client=self,
            op_seq=op_seq,
            object_id=self.object_id,
            condition_on=condition_on,
            candidate=Candidate(
                timestamp=condition_on.next_for(self.client_id, op_seq),
                value=op_seq,
            ),
        )
        self._send_request(request, self._pending_quorum)

    def on_reply(
        self,
        accepted: bool,
        latest: Candidate,
        arrives_at_ms: float,
        slot: int,
    ) -> None:
        """File one quorum server's reply at the moment the server sends it.

        The reply reaches this client at ``arrives_at_ms`` under the event
        sequence number ``slot``, reserved when it was sent. Once all
        ``q`` replies are filed, the attempt completes in one event pushed
        at the largest ``(arrives_at_ms, slot)`` key among them: the
        arrival, and the tie order, of its last reply. Slots grow in call
        order, so on a tied arrival time the later reply has the larger
        key.
        """
        latests = self._latests
        latests.append(latest)
        if not accepted:
            self._rejected = True
        if arrives_at_ms >= self._done_at_ms:
            self._done_at_ms = arrives_at_ms
            self._done_slot = slot
        if len(latests) == self._quorum_size:
            self._sim.schedule_reserved(
                self._done_at_ms, self._done_slot, self._complete
            )

    def _network_component_ms(self) -> float:
        """The operation's pure network component.

        The paper's network delay for a quorum access is the maximum RTT
        to the accessed quorum (equation (4.1) with ``alpha = 0``); using
        the topology's RTT directly keeps the measure exact even when the
        last reply was delayed by server queueing rather than the network.
        """
        rtt = self._server_rtt
        return max([rtt[server_id] for server_id in self._pending_quorum])

    def _complete(self) -> None:
        if not self._running:
            return
        latest = self._latests[0].timestamp
        if self._rejected or any(
            c.timestamp != latest for c in self._latests
        ):
            raise SimulationError(
                f"client {self.client_id}: a quorum server rejected the "
                "operation's condition or the quorum disagreed on the "
                f"latest version of object {self.object_id}; each client "
                "writes its own object, so no write may contend"
            )
        self._condition_on = latest
        self.records.append(
            OperationRecord(
                client_id=self.client_id,
                client_node=self.node,
                issued_at_ms=self._issued_at_ms,
                completed_at_ms=self._sim.now,
                network_delay_ms=self._network_component_ms(),
            )
        )
        self._issue()

    @property
    def operations_completed(self) -> int:
        return len(self.records)
