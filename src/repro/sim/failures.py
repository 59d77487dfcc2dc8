"""Failure injection for quorum-protocol simulations. (Extension.)

The paper's evaluation assumes "normal conditions, i.e., that there are no
failures of network nodes or links" and names relaxing that as future work
(Section 1). This module provides the machinery: crash/recovery schedules
for server nodes, applied to the generic simulator.

Semantics: while a node is crashed it silently drops arriving requests
(queued work is lost, matching a process crash). Clients arm a timeout per
access; on expiry they abandon the access and resample a quorum — under
the balanced strategy fresh samples eventually avoid the dead node, while
a deterministic closest strategy keeps hitting it until recovery, which is
exactly the brittleness the quorum literature predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["CrashWindow", "FailureSchedule"]


@dataclass(frozen=True)
class CrashWindow:
    """One crash interval of a node: down in [start_ms, end_ms)."""

    node: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0 or self.end_ms <= self.start_ms:
            raise SimulationError(
                f"invalid crash window [{self.start_ms}, {self.end_ms})"
            )


class FailureSchedule:
    """A set of crash windows, queryable by (node, time).

    Windows are **canonically merged**: per node, overlapping, duplicate,
    or back-to-back windows collapse into one maximal interval, and
    :attr:`windows` always reads sorted by ``(node, start_ms)``. Schedules
    composed from several sources (a dynamics churn trace plus hand-added
    outages, say) therefore behave as the *union* of their downtime — a
    node cannot be double-crashed into accidentally double-counted
    downtime, and crash/recovery state can never toggle twice at one
    boundary.
    """

    def __init__(self, windows: list[CrashWindow] | None = None) -> None:
        self._windows: list[CrashWindow] = []
        for window in windows or []:
            self._merge_in(window)

    def _merge_in(self, window: CrashWindow) -> None:
        """Insert one window, coalescing it with any it touches."""
        keep: list[CrashWindow] = []
        start, end = window.start_ms, window.end_ms
        for existing in self._windows:
            if (
                existing.node == window.node
                and existing.start_ms <= end
                and start <= existing.end_ms
            ):
                start = min(start, existing.start_ms)
                end = max(end, existing.end_ms)
            else:
                keep.append(existing)
        keep.append(CrashWindow(window.node, start, end))
        keep.sort(key=lambda w: (w.node, w.start_ms))
        self._windows = keep

    def add(self, node: int, start_ms: float, end_ms: float) -> None:
        """Schedule a crash of ``node`` during ``[start_ms, end_ms)``.

        Merges with any existing window of the node it overlaps or
        touches.
        """
        self._merge_in(CrashWindow(node, start_ms, end_ms))

    @property
    def windows(self) -> tuple[CrashWindow, ...]:
        """The canonical (merged, sorted) windows."""
        return tuple(self._windows)

    def is_down(self, node: int, time_ms: float) -> bool:
        """Whether ``node`` is crashed at ``time_ms``."""
        return any(
            w.node == node and w.start_ms <= time_ms < w.end_ms
            for w in self._windows
        )

    def node_windows(self, node: int) -> np.ndarray:
        """The node's crash windows as a ``(k, 2)`` float array.

        Rows read ``[start_ms, end_ms)`` sorted ascending; canonical
        merging guarantees they are disjoint and non-adjacent, so the
        flattened boundaries are strictly increasing — the property the
        fluid backend's ``searchsorted`` drop masks rely on.
        """
        rows = [
            (w.start_ms, w.end_ms)
            for w in self._windows
            if w.node == node
        ]
        return np.asarray(rows, dtype=np.float64).reshape(-1, 2)

    def downtime(self, node: int, until_ms: float) -> float:
        """Total scheduled downtime of ``node`` within ``[0, until_ms)``.

        Canonical merging makes this the measure of the *union* of the
        node's windows — composed schedules never double-count overlap.
        """
        total = 0.0
        for w in self._windows:
            if w.node != node:
                continue
            total += max(0.0, min(w.end_ms, until_ms) - w.start_ms)
        return total
