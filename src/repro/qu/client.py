"""Q/U client: closed-loop conditioned operations against random quorums.

Matching the paper's workload: each client runs a closed loop (next
operation issues the moment the previous one completes), chooses its quorum
**uniformly at random** among all ``q``-subsets of the ``n`` servers
("thereby balancing client demand across servers"), and issues conditioned
writes that complete in a single round trip in the common case.

Clients default to operating on a private object, which keeps every
operation on the single-round-trip path, exactly like the paper's
measurements; pointing several clients at a shared object exercises the
contention/retry path instead.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.qu.messages import QURequest
from repro.qu.objects import Candidate, classify_replies
from repro.qu.timestamps import QUTimestamp
from repro.sim.engine import Simulator
from repro.sim.metrics import OperationRecord

__all__ = ["QUClient"]

#: Contention retries one operation may take before the workload counts
#: as livelocked.
MAX_RETRIES = 64
#: Scale of the first randomized backoff; it doubles per retry up to 2^8.
BACKOFF_BASE_MS = 2.0


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
        object_id: int | None = None,
        think_time_ms: float = 0.0,
    ) -> None:
        if not 1 <= quorum_size <= n_servers:
            raise SimulationError(
                f"quorum size {quorum_size} invalid for {n_servers} servers"
            )
        if think_time_ms < 0:
            raise SimulationError("think time must be non-negative")
        self.client_id = client_id
        self.node = node
        self._sim = sim
        self._send_request = send_request
        # RTT to every server, read once per completed operation.
        self._server_rtt = [rtt_to_server(s) for s in range(n_servers)]
        self._n_servers = n_servers
        self._quorum_size = quorum_size
        self._rng = np.random.default_rng(seed)
        self.object_id = client_id if object_id is None else object_id
        self._think_time_ms = think_time_ms

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
        self._first_issued_at_ms = 0.0  # survives retries of the same op
        self._retries = 0
        self._running = False
        self.records: list[OperationRecord] = []
        self.retries_total = 0

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

    def _issue(self, is_retry: bool = False) -> None:
        if not self._running:
            return
        now = self._sim.now
        if not is_retry:
            self._op_seq += 1
            self._retries = 0
            self._first_issued_at_ms = now
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
        status, top = classify_replies(self._latests)
        if status == "complete" and not self._rejected:
            self._condition_on = top.timestamp
            self.records.append(
                OperationRecord(
                    client_id=self.client_id,
                    client_node=self.node,
                    issued_at_ms=self._first_issued_at_ms,
                    completed_at_ms=self._sim.now,
                    network_delay_ms=self._network_component_ms(),
                )
            )
            if self._think_time_ms > 0:
                self._sim.schedule(self._think_time_ms, self._issue)
            else:
                self._issue()
            return
        # Contention: re-condition on the highest version seen and retry
        # after a randomized exponential backoff (Q/U's contention
        # resolution; without it co-located writers livelock).
        self._condition_on = top.timestamp
        self._retries += 1
        self.retries_total += 1
        if self._retries > MAX_RETRIES:
            raise SimulationError(
                f"client {self.client_id} exceeded {MAX_RETRIES} "
                "retries; workload is livelocked"
            )
        scale = BACKOFF_BASE_MS * (2.0 ** min(self._retries, 8))
        backoff = float(self._rng.uniform(0.0, scale))
        self._sim.schedule(backoff, partial(self._issue, True))

    @property
    def operations_completed(self) -> int:
        return len(self.records)
