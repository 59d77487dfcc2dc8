"""Shared-memory topology transport for parallel candidate searches.

The parallel searches fan independent candidates out over a process pool,
and every task used to carry its own pickled :class:`Topology` — an
O(n^2) delay matrix serialized in the parent and deserialized in a worker,
per candidate. On planetlab-50 that is noise; on a 2000-node WAN it is
32 MB per task and the candidate loop collapses into memory traffic.

:class:`TopologyBroker` removes the matrix from the task payload. The
publishing process copies the RTT matrix, capacities, and names into one
``multiprocessing.shared_memory`` block per topology — keyed by
:func:`~repro.runtime.cache.topology_fingerprint`, so re-publishing the
same topology is free — and hands back a tiny picklable
:class:`TopologyHandle`. Grid points ship the handle; a worker resolving
it attaches the block and wraps a **read-only, zero-copy** numpy view in a
:class:`~repro.network.graph.Topology` via :meth:`Topology.adopt
<repro.network.graph.Topology.adopt>`. Each worker attaches a given block
once and caches the rehydrated topology for the life of the process.

Results are unchanged by the transport: the worker's view contains the
publisher's exact float64 bytes, so every computation is bit-identical to
the serial path operating on the original object (pinned by
``tests/test_shm_topology.py``).

Lifecycle: the publisher owns the blocks — :meth:`TopologyBroker.close`
(called by ``GridRunner.close``) unlinks them; workers only borrow
attachments, which the OS releases with the process. When shared memory is
unavailable (no ``/dev/shm``, exotic platforms) or disabled via
``REPRO_NO_SHM=1``, :meth:`TopologyBroker.publish` falls back to returning
the topology itself, restoring the pickle-per-task behavior with no
caller-visible difference beyond speed.
"""

from __future__ import annotations

# cache-key-input: handles are keyed by topology_fingerprint; a handle
# resolving to different bytes than its fingerprint promises would serve
# stale cached results.

import logging
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass

import numpy as np

from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.runtime.cache import topology_fingerprint

logger = logging.getLogger(__name__)

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None

__all__ = [
    "SHM_DISABLE_ENV",
    "TopologyBroker",
    "TopologyHandle",
    "resolve_topology",
    "shm_available",
]

#: Set to a non-empty value to force the pickle-per-task fallback (used by
#: the scale benchmark to measure the baseline it replaced).
SHM_DISABLE_ENV = "REPRO_NO_SHM"

#: Topologies published by *this* process, so resolving a handle in the
#: publisher (serial paths, nested in-worker runs) returns the original
#: object without touching the block.
_PUBLISHED: dict[str, Topology] = {}

#: Worker-side cache of attached blocks: fingerprint -> (block, topology).
#: The block object must stay referenced while any numpy view aliases its
#: buffer. Bounded: searches touch one or two topologies at a time, and a
#: dropped entry simply re-attaches on next use.
_ATTACHED: dict[str, tuple[object, Topology]] = {}
_ATTACHED_MAX = 8


def shm_available() -> bool:
    """Whether shared-memory transport can be used in this process."""
    # REPRO_NO_SHM only selects the transport; either path is pinned
    # bit-identical, so the env read cannot fork results.
    disabled = os.environ.get(SHM_DISABLE_ENV)  # repro-lint: disable=RL002 -- transport toggle, results identical
    return shared_memory is not None and not disabled


@dataclass(frozen=True)
class TopologyHandle:
    """Picklable reference to a topology published in shared memory.

    The handle is what grid points carry instead of the topology itself:
    a fingerprint, the block name, and the layout sizes needed to
    reconstruct the views — a few hundred bytes regardless of ``n_nodes``.

    Block layout: ``rtt`` (n*n float64) | ``capacities`` (n float64) |
    pickled names tuple (``names_size`` bytes).
    """

    fingerprint: str
    shm_name: str
    n_nodes: int
    names_size: int

    @property
    def rtt_bytes(self) -> int:
        return self.n_nodes * self.n_nodes * 8

    @property
    def capacities_offset(self) -> int:
        return self.rtt_bytes

    @property
    def names_offset(self) -> int:
        return self.rtt_bytes + self.n_nodes * 8


def _attach(handle: TopologyHandle) -> tuple[object, Topology]:
    """Attach the block and rehydrate a read-only, zero-copy topology."""
    # Pool workers share the parent's resource-tracker process, so this
    # attach's register is idempotent (the tracker's cache is a set) and
    # the publisher's unlink unregisters the name exactly once. No
    # per-attach untracking is needed — or safe: an extra unregister here
    # would make the publisher's unlink a double-unregister.
    block = shared_memory.SharedMemory(name=handle.shm_name)
    n = handle.n_nodes
    rtt = np.ndarray((n, n), dtype=np.float64, buffer=block.buf)
    # Capacities are O(n): copy them out so only the matrix aliases the
    # block. Names travel as a pickled tuple after the arrays.
    capacities = np.array(
        np.ndarray(
            (n,),
            dtype=np.float64,
            buffer=block.buf,
            offset=handle.capacities_offset,
        )
    )
    names = pickle.loads(
        bytes(
            block.buf[
                handle.names_offset : handle.names_offset + handle.names_size
            ]
        )
    )
    topology = Topology.adopt(rtt, names, capacities)
    return block, topology


def resolve_topology(obj: "Topology | TopologyHandle") -> Topology:
    """A topology from either the object itself or a shipped handle.

    Candidate-evaluation functions call this on their ``topology``
    argument unconditionally: serial paths pass real topologies through
    untouched, parallel paths pass handles that resolve against the
    publishing process (free) or the worker's attachment cache (one
    attach per topology per worker).
    """
    if isinstance(obj, Topology):
        return obj
    if not isinstance(obj, TopologyHandle):
        raise TypeError(
            f"expected a Topology or TopologyHandle, got {type(obj).__name__}"
        )
    published = _PUBLISHED.get(obj.fingerprint)
    if published is not None:
        return published
    cached = _ATTACHED.get(obj.fingerprint)
    if cached is not None:
        return cached[1]
    if shared_memory is None:  # pragma: no cover - import-guard path
        raise RuntimeError(
            "received a shared-memory topology handle but this platform "
            "has no multiprocessing.shared_memory support"
        )
    block, topology = _attach(obj)
    obs.count("shm.attach")
    while len(_ATTACHED) >= _ATTACHED_MAX:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[obj.fingerprint] = (block, topology)
    return topology


def _release_blocks(blocks: dict, published: dict) -> None:
    """Finalizer target: unlink every block this broker still owns."""
    for fingerprint, block in list(blocks.items()):
        blocks.pop(fingerprint, None)
        published.pop(fingerprint, None)
        try:
            block.close()
            block.unlink()
        except Exception:  # pragma: no cover  # repro-lint: disable=RL005 -- best-effort unlink of an already-gone block; raising from a finalizer would mask nothing and kill interpreter shutdown
            pass


class TopologyBroker:
    """Publishes topologies into shared memory, once per fingerprint.

    One broker per :class:`~repro.runtime.runner.GridRunner` (created
    lazily, closed with the runner). :meth:`publish` is idempotent per
    topology content and degrades transparently: if shared memory cannot
    be created — or ``REPRO_NO_SHM`` is set — it returns the topology
    itself and the search ships pickles exactly as before.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, object] = {}
        self._handles: dict[str, TopologyHandle] = {}
        self._finalizer = weakref.finalize(
            self, _release_blocks, self._blocks, _PUBLISHED
        )

    def publish(self, topology: Topology) -> "Topology | TopologyHandle":
        """A shippable reference for ``topology``: handle, or the object."""
        if not shm_available():
            # Deliberate (REPRO_NO_SHM) or structural (no shared_memory
            # module): not silent either way — the pickle-per-task path
            # is a real throughput cliff on large topologies.
            logger.info(
                "shared-memory transport unavailable; shipping pickled "
                "topologies per task"
            )
            obs.count("shm.fallback")
            return topology
        fingerprint = topology_fingerprint(topology)
        handle = self._handles.get(fingerprint)
        if handle is not None:
            return handle
        n = topology.n_nodes
        names_blob = pickle.dumps(
            tuple(topology.names), protocol=pickle.HIGHEST_PROTOCOL
        )
        size = n * n * 8 + n * 8 + len(names_blob)
        name = f"repro-{fingerprint[:12]}-{secrets.token_hex(4)}"
        try:
            block = shared_memory.SharedMemory(
                create=True, size=size, name=name
            )
        except (OSError, ValueError) as exc:
            # No usable /dev/shm (or the block is too large for it):
            # fall back to shipping the topology itself.
            logger.warning(
                "shared-memory publish failed for topology %s "
                "(%d nodes, %d bytes): %s; falling back to pickling "
                "the topology per task",
                fingerprint[:12],
                n,
                size,
                exc,
            )
            obs.count("shm.fallback")
            return topology
        rtt_view = np.ndarray((n, n), dtype=np.float64, buffer=block.buf)
        rtt_view[:] = topology.rtt
        cap_view = np.ndarray(
            (n,), dtype=np.float64, buffer=block.buf, offset=n * n * 8
        )
        cap_view[:] = topology.capacities
        names_offset = n * n * 8 + n * 8
        block.buf[names_offset : names_offset + len(names_blob)] = names_blob
        del rtt_view, cap_view  # release buffer exports before any close()

        handle = TopologyHandle(
            fingerprint=fingerprint,
            shm_name=block.name,
            n_nodes=n,
            names_size=len(names_blob),
        )
        self._blocks[fingerprint] = block
        self._handles[fingerprint] = handle
        _PUBLISHED[fingerprint] = topology
        obs.count("shm.publish")
        return handle

    @property
    def published(self) -> tuple[str, ...]:
        """Fingerprints of the topologies this broker has published."""
        return tuple(self._handles)

    def close(self) -> None:
        """Unlink every published block (workers' borrows stay valid
        until they detach; the OS reclaims the memory with the last one).
        """
        self._handles.clear()
        _release_blocks(self._blocks, _PUBLISHED)

    def __enter__(self) -> "TopologyBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"TopologyBroker(published={len(self._handles)})"
