"""The Q/U request message.

One attempt of an operation is one :class:`QURequest`, which the client
sends to every server of its quorum. Replies carry no message object: a
server hands its client the pair ``(accepted, latest candidate)`` when it
sends the reply (see :meth:`repro.qu.client.QUClient.on_reply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.qu.objects import Candidate
from repro.qu.timestamps import QUTimestamp

if TYPE_CHECKING:
    from repro.qu.client import QUClient

__all__ = ["QURequest"]


@dataclass(slots=True)
class QURequest:
    """One attempt of a conditioned single-round-trip operation.

    ``condition_on`` is the object version the client believes is latest;
    the write is accepted only if the server holds nothing newer.

    The ``q`` servers of the quorum share the request and the candidates
    it carries: ``candidate`` is the version every accepting server
    appends, and ``catch_up`` the conditioned-on version a lagging server
    adopts first, built by the first server that needs it.
    """

    client: QUClient
    op_seq: int
    object_id: int
    condition_on: QUTimestamp
    candidate: Candidate
    catch_up: Candidate | None = None
