"""Q/U protocol model (Abd-El-Malek et al., SOSP 2005).

Q/U is the Byzantine fault-tolerant quorum protocol the paper's Section 3
evaluates: ``n = 5t + 1`` servers, quorums of ``4t + 1``, and operations
that in the common case complete in a **single round trip** — the client
sends a conditioned operation to a quorum, each server applies it against
its local replica history and replies.

This package implements that common-case path with real protocol state
(logical timestamps, each server's latest version per object, conditional
writes with inline catch-up) on top of the simulator in :mod:`repro.sim`.
As in the paper's measurements, each client writes its own object, so no
write contends: a client raises :class:`~repro.errors.SimulationError` if
a server rejects its condition or its quorum disagrees on the latest
version. The Byzantine repair machinery (barriers, contention resolution,
history pruning) is out of scope: the measured experiments are
failure-free ("normal conditions", Section 1) and exercise only the
single-round-trip path.
"""

from repro.qu.client import QUClient
from repro.qu.objects import Candidate, ReplicaHistory
from repro.qu.server import QUServer
from repro.qu.service import QUService
from repro.qu.timestamps import QUTimestamp

__all__ = [
    "QUTimestamp",
    "Candidate",
    "ReplicaHistory",
    "QUServer",
    "QUClient",
    "QUService",
]
