"""Deterministic discrete-event simulation kernel.

A classic calendar-queue simulator: events are ``(time, sequence, callback)``
triples on a binary heap; the sequence number makes simultaneous events fire
in scheduling order, so runs are fully deterministic for a fixed seed. A
caller may reserve a sequence number and push its event later
(:meth:`Simulator.reserve`); the event then ties as if scheduled at the
reservation. Time is a float in **milliseconds** to match the paper's units.

The kernel is intentionally callback-based rather than coroutine-based: the
Q/U client and server are small state machines, and callbacks keep the
per-event overhead low enough for the hundreds of simulation runs behind
Figures 3.1-3.2.
"""

from __future__ import annotations

import itertools
import math
import sys
from heapq import heapify, heappop, heappush
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Simulator", "ScheduledEvent"]


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("time", "callback", "cancelled", "_sim", "_in_heap")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._sim = sim
        self._in_heap = False

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Amortized O(1): the entry stays on the heap until it is either
        popped or swept out by the simulator's compaction pass. Cancelling
        an event that already fired (or was already cancelled) is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._in_heap and self._sim is not None:
            self._sim._note_cancelled()


class Simulator:
    """An event-driven simulator with millisecond float time."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._last_reserved = -1
        self._events_processed = 0
        self._cancelled_in_heap = 0

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued.

        Cancelled entries linger until popped or compacted, but compaction
        keeps them below half the queue, so this never grows unboundedly
        in cancel-heavy workloads.
        """
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries currently occupying heap slots."""
        return self._cancelled_in_heap

    def _note_cancelled(self) -> None:
        """Record a cancellation; sweep the heap once lazy entries dominate."""
        self._cancelled_in_heap += 1
        if self._cancelled_in_heap * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        Heap order is determined solely by the ``(time, sequence)`` tuple
        prefix, so rebuilding preserves the deterministic firing order of
        the surviving events. The list object itself is kept, so a
        ``run()`` loop holding it (compaction can fire from inside a
        callback) keeps seeing the live heap.
        """
        heap = self._heap
        live = []
        for entry in heap:
            if entry[2].cancelled:
                entry[2]._in_heap = False
            else:
                live.append(entry)
        heap[:] = live
        heapify(heap)
        self._cancelled_in_heap = 0

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` ms from now."""
        # One chained comparison rejects negative, infinite and NaN delays
        # alike: every comparison with NaN is False, and a NaN time would
        # silently corrupt the heap's ordering invariant.
        if not 0.0 <= delay < math.inf:
            raise SimulationError(
                f"event delay must be finite and non-negative, got {delay}"
            )
        time = self._now + delay
        event = ScheduledEvent(time, callback, self)
        event._in_heap = True
        heappush(self._heap, (time, next(self._sequence), event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` at an absolute simulation time."""
        if not math.isfinite(time):
            raise SimulationError(
                f"event time must be finite, got {time}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = ScheduledEvent(time, callback, sim=self)
        event._in_heap = True
        heappush(self._heap, (time, next(self._sequence), event))
        return event

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
        self, time: float, slot: int, callback: Callable[[], None]
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute ``time`` under a reserved
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
        event = ScheduledEvent(time, callback, self)
        event._in_heap = True
        heappush(self._heap, (time, slot, event))
        return event

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
            left at ``until``).
        max_events:
            Stop after this many callbacks (guards against runaway loops).
        """
        if until is None and max_events is None:
            raise SimulationError(
                "run() needs a time bound or an event budget"
            )
        heap = self._heap
        bound = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        processed = 0
        while heap:
            time, _, event = heap[0]
            if time > bound:
                break
            heappop(heap)
            event._in_heap = False
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self._now = time
            event.callback()
            self._events_processed += 1
            processed += 1
            if processed >= budget:
                return
        if until is not None:
            self._now = max(self._now, until)
