"""Q/U server: per-object replica histories behind a FIFO service queue.

The paper's testbed charges "1 ms of application processing delay per
client request at each server"; the server therefore models a single
serving unit with deterministic service time and a FIFO queue, which is
what produces the queueing growth of Figures 3.1/3.2 as client demand
rises.

On the common path a request conditioned on the server's latest version is
accepted: the server accepts the new candidate and replies with its latest
candidate. A request conditioned on an older version is rejected, and the
reply carries the server's latest; with every client writing its own
object that never happens, and the client raises if it does.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

from repro.errors import SimulationError
from repro.qu.messages import QURequest
from repro.qu.objects import Candidate, ReplicaHistory
from repro.sim.engine import Simulator

__all__ = ["QUServer"]


class QUServer:
    """One Q/U server bound to a topology node.

    ``send_reply(node, request, accepted, latest)`` sends the reply to
    ``request`` from this server's ``node``.
    """

    def __init__(
        self,
        server_id: int,
        node: int,
        sim: Simulator,
        send_reply: Callable[[int, QURequest, bool, Candidate], None],
        service_time_ms: float = 1.0,
    ) -> None:
        if service_time_ms < 0:
            raise SimulationError("service time must be non-negative")
        self.server_id = server_id
        self.node = node
        self._sim = sim
        self._send_reply = send_reply
        self._service_time_ms = service_time_ms
        self._queue: deque[QURequest] = deque()
        self._busy = False
        self._store: dict[int, ReplicaHistory] = {}
        self.requests_processed = 0
        self.busy_time_ms = 0.0

    # ------------------------------------------------------------------
    # Arrival and queueing
    # ------------------------------------------------------------------
    def on_request(self, request: QURequest) -> None:
        """Network delivery callback: enqueue and serve FIFO."""
        self._queue.append(request)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        request = self._queue.popleft()
        self.busy_time_ms += self._service_time_ms
        self._sim.schedule(
            self._service_time_ms, partial(self._finish, request)
        )

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _history_for(self, object_id: int) -> ReplicaHistory:
        history = self._store.get(object_id)
        if history is None:
            history = ReplicaHistory()
            self._store[object_id] = history
        return history

    def _finish(self, request: QURequest) -> None:
        history = self._history_for(request.object_id)
        latest = history.latest
        accepted = True
        condition_on = request.condition_on
        if latest.timestamp <= condition_on:
            # The request's object-history set certifies condition_on, so
            # a server that missed intervening updates adopts the
            # conditioned-on version inline (Q/U's single-round-trip
            # catch-up) before accepting the new one.
            if latest.timestamp < condition_on:
                catch_up = request.catch_up
                if catch_up is None:
                    catch_up = request.catch_up = Candidate(
                        timestamp=condition_on,
                        value=request.op_seq - 1,
                    )
                history.accept(catch_up)
            history.accept(request.candidate)
        else:
            accepted = False  # server has newer state: stale condition
        self.requests_processed += 1
        self._send_reply(self.node, request, accepted, history.latest)
        self._start_next()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of elapsed time spent serving requests."""
        if elapsed_ms <= 0:
            raise SimulationError("elapsed time must be positive")
        return min(1.0, self.busy_time_ms / elapsed_ms)
