"""Q/U object state: candidates and replica histories.

Each server keeps, per object, a *replica history* of the versions
(candidates) it has accepted. The single-round-trip path reads only the
latest of them: a server accepts a write conditioned on its latest
version and replies with the latest candidate, and the client checks that
its quorum agrees on it. So a :class:`ReplicaHistory` keeps just that
latest candidate; the older versions serve Q/U's repair and pruning
machinery, which failure-free runs without write contention never reach.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qu.timestamps import QUTimestamp

__all__ = ["Candidate", "ReplicaHistory"]


@dataclass(frozen=True)
class Candidate:
    """One object version: a timestamp and an opaque value token."""

    timestamp: QUTimestamp
    value: int


#: The version every object starts from.
_ZERO = Candidate(timestamp=QUTimestamp.zero(), value=0)


class ReplicaHistory:
    """The per-object version state a server maintains: its latest
    candidate, initially the zero version."""

    __slots__ = ("latest",)

    def __init__(self) -> None:
        self.latest = _ZERO

    def accept(self, candidate: Candidate) -> None:
        """Accept a new candidate (server-side accept).

        A strictly newer timestamp becomes ``latest``; an equal one leaves
        the earlier candidate in place.
        """
        if candidate.timestamp > self.latest.timestamp:
            self.latest = candidate
