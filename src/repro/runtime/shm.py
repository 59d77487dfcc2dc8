"""Topology transport for parallel candidate searches.

The parallel searches fan independent candidates out over a process pool,
and every task used to carry its own pickled :class:`Topology` — an
O(n^2) delay matrix serialized in the parent and deserialized in a worker,
per candidate. On planetlab-50 that is noise; on a 2000-node WAN it is
32 MB per task and the candidate loop collapses into memory traffic.

:class:`TopologyBroker` removes the matrix from the task payload and hands
back a tiny picklable :class:`TopologyHandle` instead, by one of two
routes:

* **Inheritance.** Workers forked after a topology is shipped already
  hold it: the broker registers the object in this process's registry
  under a unique key, and a forked worker resolves the handle from the
  copy of that registry it inherited — no hash, no copy, no block.
  :meth:`GridRunner.ship <repro.runtime.runner.GridRunner.ship>` takes
  this route whenever its pool has not started yet and starts with
  ``fork``, which covers every search that ships before it dispatches.
* **A shared-memory block**, for workers already running (or started
  without ``fork``). The publishing process copies the RTT matrix,
  capacities, and names into one ``multiprocessing.shared_memory`` block
  per topology — keyed by :func:`~repro.runtime.cache.topology_fingerprint`,
  so re-publishing the same content is free. A worker resolving the
  handle attaches the block and wraps a **read-only, zero-copy** numpy
  view in a :class:`~repro.network.graph.Topology` via
  :meth:`Topology.adopt <repro.network.graph.Topology.adopt>`, once per
  block for the life of the process.

A broker ships each topology object once: shipping it again (the coarse,
then the refine stage of a hierarchical search) returns the same handle.

Results are unchanged by the transport: the worker's topology holds the
publisher's exact float64 bytes, so every computation is bit-identical to
the serial path operating on the original object (pinned by
``tests/test_shm_topology.py``).

Lifecycle: the publisher owns the blocks — :meth:`TopologyBroker.close`
(called by ``GridRunner.close``) unlinks them and drops its registrations;
workers only borrow attachments, which the OS releases with the process.
Workers must share the publisher's resource tracker (``GridRunner``
starts it before it forks a pool), or a worker's own tracker unlinks the
block when the worker exits. When shared memory is unavailable (no
``/dev/shm``, exotic platforms) or disabled via ``REPRO_NO_SHM=1``,
:meth:`TopologyBroker.publish` falls back to returning the topology
itself, restoring the pickle-per-task behavior with no caller-visible
difference beyond speed.
"""

from __future__ import annotations

# cache-key-input: a block's handle is keyed by topology_fingerprint; a
# handle resolving to different bytes than its key promises would serve
# stale cached results. Inherited handles use keys no other registration
# reuses, each naming one immutable topology object.

import itertools
import logging
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
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

#: Topologies shipped by *this* process, by handle key. Resolving a handle
#: in the publisher (serial paths, nested in-worker runs) returns the
#: original object without touching a block, and a worker forked after
#: the entry was made resolves it from its inherited copy.
_PUBLISHED: dict[str, Topology] = {}

#: Serial numbers of inherited registrations, unique within this process.
_INHERITED_KEYS = itertools.count()

#: Worker-side cache of attached blocks: key -> (block, topology).
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
    """Picklable reference to a shipped topology.

    The handle is what grid points carry instead of the topology itself:
    a registry key, the block name, and the layout sizes needed to
    reconstruct the views — a few hundred bytes regardless of ``n_nodes``.
    An inherited handle has no block (``shm_name`` is None): it resolves
    only in the process that shipped it and in workers forked after.

    Block layout: ``rtt`` (n*n float64) | ``capacities`` (n float64) |
    pickled names tuple (``names_size`` bytes).
    """

    key: str
    shm_name: str | None
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
    # Pool workers share the parent's resource-tracker process (the
    # runner starts it before forking), so this attach's register is
    # idempotent (the tracker's cache is a set) and the publisher's unlink
    # unregisters the name exactly once. No per-attach untracking is
    # needed — or safe: an extra unregister here would make the
    # publisher's unlink a double-unregister.
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
    untouched, parallel paths pass handles that resolve against this
    process's registry (the publisher's own, or the copy a forked worker
    inherited: free) or the worker's attachment cache (one attach per
    block per worker).
    """
    if isinstance(obj, Topology):
        return obj
    if not isinstance(obj, TopologyHandle):
        raise TypeError(
            f"expected a Topology or TopologyHandle, got {type(obj).__name__}"
        )
    published = _PUBLISHED.get(obj.key)
    if published is not None:
        return published
    cached = _ATTACHED.get(obj.key)
    if cached is not None:
        return cached[1]
    if obj.shm_name is None:
        raise ReproError(
            f"topology handle {obj.key!r} has no shared-memory block and is "
            "not registered in this process: an inherited handle resolves "
            "only where it was shipped and in workers forked after"
        )
    if shared_memory is None:  # pragma: no cover - import-guard path
        raise RuntimeError(
            "received a shared-memory topology handle but this platform "
            "has no multiprocessing.shared_memory support"
        )
    block, topology = _attach(obj)
    obs.count("shm.attach")
    while len(_ATTACHED) >= _ATTACHED_MAX:
        _ATTACHED.pop(next(iter(_ATTACHED)))
    _ATTACHED[obj.key] = (block, topology)
    return topology


def _release(blocks: dict, shipped: dict) -> None:
    """Finalizer target: drop every registration, unlink every block."""
    for _topology, handle in shipped.values():
        _PUBLISHED.pop(handle.key, None)
    shipped.clear()
    for fingerprint, (block, _handle) in list(blocks.items()):
        blocks.pop(fingerprint, None)
        try:
            block.close()
            block.unlink()
        except Exception:  # pragma: no cover  # repro-lint: disable=RL005 -- best-effort unlink of an already-gone block; raising from a finalizer would mask nothing and kill interpreter shutdown
            pass


class TopologyBroker:
    """Ships topologies to pool workers: by inheritance or in a block.

    One broker per :class:`~repro.runtime.runner.GridRunner` (created
    lazily, closed with the runner). :meth:`publish` ships each topology
    object once, makes at most one block per topology content, and
    degrades transparently: if shared memory cannot be created — or
    ``REPRO_NO_SHM`` is set — it returns the topology itself and the
    search ships pickles exactly as before.
    """

    def __init__(self) -> None:
        # fingerprint -> (block, handle)
        self._blocks: dict[str, tuple[object, TopologyHandle]] = {}
        # id(topology) -> (topology, handle); holding the topology keeps
        # its id from being reused while the entry lives.
        self._shipped: dict[int, tuple[Topology, TopologyHandle]] = {}
        self._finalizer = weakref.finalize(
            self, _release, self._blocks, self._shipped
        )

    def publish(
        self, topology: Topology, inherited: bool = False
    ) -> "Topology | TopologyHandle":
        """A shippable reference for ``topology``: handle, or the object.

        ``inherited`` says that every worker the handle will reach forks
        after this call (set by ``GridRunner.ship``): the topology is then
        only registered here, and the workers find it in the registry
        they inherit. Otherwise it is copied into a shared-memory block.
        """
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
        shipped = self._shipped.get(id(topology))
        if shipped is not None:
            return shipped[1]
        if inherited:
            key = f"inherited-{os.getpid()}-{next(_INHERITED_KEYS)}"
            handle = TopologyHandle(
                key=key, shm_name=None, n_nodes=topology.n_nodes, names_size=0
            )
            _PUBLISHED[key] = topology
        else:
            handle = self._block(topology)
            if handle is None:
                return topology
        self._shipped[id(topology)] = (topology, handle)
        return handle

    def _block(self, topology: Topology) -> TopologyHandle | None:
        """The handle of a block holding ``topology`` (None: no block)."""
        fingerprint = topology_fingerprint(topology)
        if fingerprint in self._blocks:
            return self._blocks[fingerprint][1]
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
            return None
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
            key=fingerprint,
            shm_name=block.name,
            n_nodes=n,
            names_size=len(names_blob),
        )
        self._blocks[fingerprint] = (block, handle)
        _PUBLISHED[fingerprint] = topology
        obs.count("shm.publish")
        return handle

    @property
    def published(self) -> tuple[str, ...]:
        """Fingerprints of the topologies this broker holds in blocks."""
        return tuple(self._blocks)

    def close(self) -> None:
        """Drop every registration and unlink every block (workers'
        borrows stay valid until they detach; the OS reclaims the memory
        with the last one).
        """
        _release(self._blocks, self._shipped)

    def __enter__(self) -> "TopologyBroker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TopologyBroker(shipped={len(self._shipped)}, "
            f"blocks={len(self._blocks)})"
        )
