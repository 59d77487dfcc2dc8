"""Q/U logical timestamps.

Q/U orders object versions by logical timestamps constructed so that
distinct operations produce distinct, totally ordered timestamps. We keep
the fields that matter for ordering and tie-breaking — logical time and
the (client id, operation sequence) pair that makes timestamps unique —
and drop the barrier flag, which only the repair protocol sets, and the
operation/history hashes, which only serve Byzantine verification.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QUTimestamp"]


@dataclass(frozen=True, order=True)
class QUTimestamp:
    """A totally ordered logical timestamp.

    ``time`` is the logical clock; ``client_id`` and ``op_seq`` break ties
    between concurrent updates.
    Timestamps compare lexicographically in field order, so the field
    order *is* the total order.
    """

    time: int = 0
    client_id: int = -1
    op_seq: int = -1

    def next_for(self, client_id: int, op_seq: int) -> "QUTimestamp":
        """The timestamp a successful update conditioned on ``self`` creates."""
        return QUTimestamp(
            time=self.time + 1,
            client_id=client_id,
            op_seq=op_seq,
        )

    @classmethod
    def zero(cls) -> "QUTimestamp":
        """The initial timestamp every object starts from."""
        return cls()
