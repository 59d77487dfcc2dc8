"""Q/U object state: candidates and replica histories.

Each server keeps, per object, a *replica history* — the set of versions
(candidates) it has accepted, ordered by timestamp. Clients classify the
state of an object from the latest candidates a quorum's replies carry:

* **complete** — every server in the quorum has the same latest candidate;
  the conditioned operation applied cleanly everywhere (the common case).
* **contended** — servers disagree on the latest candidate or rejected the
  condition; the client must refresh and retry (stand-in for Q/U's
  repair/barrier machinery, which failure-free runs exercise only under
  write contention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.qu.timestamps import QUTimestamp

__all__ = ["KEEP_LAST", "Candidate", "ReplicaHistory", "classify_replies"]


@dataclass(frozen=True)
class Candidate:
    """One object version: a timestamp and an opaque value token."""

    timestamp: QUTimestamp
    value: int


#: Candidates a pruned history keeps. :meth:`ReplicaHistory.accept` prunes
#: a history once it holds more than twice this many, so no history grows
#: past ``2 * KEEP_LAST`` candidates however long the run.
KEEP_LAST = 8


def _timestamp(candidate: Candidate) -> QUTimestamp:
    return candidate.timestamp


@dataclass
class ReplicaHistory:
    """The per-object version history a server maintains.

    ``latest`` is the highest-timestamped candidate — the *first* one in
    list order on ties, as ``max`` over ``candidates`` returns. It is kept
    current by :meth:`accept` and :meth:`prune`, so reading it costs no
    scan; change a history only through those two methods.
    """

    candidates: list[Candidate] = field(default_factory=list)
    # Timestamps are immutable, so every history can share one zero.
    pruned_below: QUTimestamp = QUTimestamp.zero()
    latest: Candidate = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        candidates = self.candidates
        if not candidates:
            candidates.append(
                Candidate(timestamp=QUTimestamp.zero(), value=0)
            )
        if len(candidates) == 1:
            self.latest = candidates[0]
        else:
            self.latest = max(candidates, key=_timestamp)

    def accept(self, candidate: Candidate) -> None:
        """Append a new candidate (server-side accept).

        A strictly newer timestamp becomes ``latest``; an equal one leaves
        the earlier candidate in place, exactly as ``max`` would.
        """
        self.candidates.append(candidate)
        if candidate.timestamp > self.latest.timestamp:
            self.latest = candidate
        if len(self.candidates) > 2 * KEEP_LAST:
            self.prune()

    def prune(self, keep_last: int = KEEP_LAST) -> None:
        """Discard old candidates, keeping the most recent ``keep_last``.

        Q/U servers prune replica histories once versions are known to be
        established; keeping a short suffix bounds memory in long runs.
        The sort is stable, so tied candidates keep their list order, and
        ``latest`` is recomputed over the candidates that remain.
        """
        if len(self.candidates) <= keep_last:
            return
        self.candidates.sort(key=_timestamp)
        dropped = self.candidates[:-keep_last]
        self.candidates = self.candidates[-keep_last:]
        self.pruned_below = max(
            self.pruned_below, max(c.timestamp for c in dropped)
        )
        self.latest = max(self.candidates, key=_timestamp)


def classify_replies(latests: list[Candidate]) -> tuple[str, Candidate]:
    """Classify the object state from a quorum's latest candidates.

    ``latests`` holds the latest candidate of each quorum server's replica
    history, which is what a server returns in its reply. Returns
    ``("complete", latest)`` when the quorum agrees on the latest
    candidate, else ``("contended", latest)`` with the highest candidate
    seen (the version to re-condition on).
    """
    top = max(latests, key=_timestamp)
    if all(c.timestamp == top.timestamp for c in latests):
        return "complete", top
    return "contended", top
