"""Deterministic discrete-event simulation kernel.

A classic calendar-queue simulator: events are ``(time, sequence, handler,
arg)`` entries on a binary heap, and firing one calls ``handler(arg)``.
The sequence number makes simultaneous events fire in scheduling order,
so runs are fully deterministic for a fixed seed. A caller may reserve a
sequence number and push its event later (:meth:`Simulator.reserve`); the
event then ties as if scheduled at the reservation. Time is a float in
**milliseconds** to match the paper's units.

The kernel is intentionally callback-based rather than coroutine-based:
an event names a handler and the one argument it needs (a client id, a
message), so scheduling builds no closure or ``functools.partial``, and
the per-event overhead stays low enough for the hundreds of simulation
runs behind Figures 3.1-3.2. A scheduled event cannot be cancelled: every
event fires once its time comes.
"""

from __future__ import annotations

import itertools
import math
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.errors import SimulationError

__all__ = ["Simulator"]

#: What an event calls: ``handler(arg)``.
Handler = Callable[[Any], object]


class Simulator:
    """An event-driven simulator with millisecond float time."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Handler, Any]] = []
        self._sequence = itertools.count()
        self._last_reserved = -1
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of handler calls completed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def pending_handlers(self) -> Iterator[tuple[Handler, Any]]:
        """The ``(handler, arg)`` pairs still queued, in no particular order.

        A read-only view for accounting at the end of a run: it neither
        pops nor reorders an event.
        """
        return ((handler, arg) for _, _, handler, arg in self._heap)

    def schedule(self, delay: float, handler: Handler, arg: Any) -> None:
        """Schedule ``handler(arg)`` to run ``delay`` ms from now."""
        # One chained comparison rejects negative, infinite and NaN delays
        # alike: every comparison with NaN is False, and a NaN time would
        # silently corrupt the heap's ordering invariant.
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"event delay must be finite and non-negative, got {delay}"
            )
        heappush(
            self._heap,
            (self._now + delay, next(self._sequence), handler, arg),
        )

    def reserve(self) -> int:
        """Take the sequence number an event scheduled now would get.

        :meth:`schedule_reserved` later pushes an event under it, which
        then fires in the tie order it would have had if it had been
        scheduled at this moment. A reserved number that is never used
        costs nothing.
        """
        slot = next(self._sequence)
        self._last_reserved = slot
        return slot

    def schedule_reserved(
        self, time: float, slot: int, handler: Handler, arg: Any
    ) -> None:
        """Schedule ``handler(arg)`` at absolute ``time`` under a reserved
        sequence number.

        ``slot`` must be a number :meth:`reserve` returned, used once;
        one it has not handed out yet is rejected.
        """
        if not self._now <= time < math.inf:
            raise SimulationError(
                f"event time must be finite and not before the current "
                f"time {self._now}, got {time}"
            )
        if not 0 <= slot <= self._last_reserved:
            raise SimulationError(f"sequence slot {slot} was not reserved")
        heappush(self._heap, (time, slot, handler, arg))

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once simulation time would pass this bound (the clock is
            left at ``until``). Must be finite: pass ``None`` with
            ``max_events`` to run without a time bound.
        max_events:
            Stop after this many handler calls (guards against runaway
            loops).
        """
        if until is None and max_events is None:
            raise SimulationError(
                "run() needs a time bound or an event budget"
            )
        # ``time > nan`` is False for every time, so a NaN bound would
        # bound nothing, and an infinite one never stops a closed loop.
        if until is not None and not math.isfinite(until):
            raise SimulationError(
                f"run() time bound must be finite, got {until}"
            )
        heap = self._heap
        bound = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        processed = 0
        # The count is kept in a local and added once: a handler that
        # raises leaves ``events_processed`` at the calls that completed.
        try:
            while heap:
                if heap[0][0] > bound:
                    break
                time, _, handler, arg = heappop(heap)
                self._now = time
                handler(arg)
                processed += 1
                if processed >= budget:
                    return
        finally:
            self._events_processed += processed
        if until is not None:
            self._now = max(self._now, until)
