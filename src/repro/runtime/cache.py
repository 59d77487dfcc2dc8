"""On-disk result cache keyed by content hashes of experiment inputs.

A cached entry is one grid point's result, keyed by a SHA-256 digest of a
canonical serialization of everything that determines it: the topology
(RTT matrix, capacities, names), the quorum system's structure, and the
point's scalar parameters (strategy, alpha, seed, ...). Two points with
the same inputs — even issued by different figures — share one entry.

Cache layout (under :func:`default_cache_dir`, overridable with the
``REPRO_CACHE_DIR`` environment variable)::

    <root>/<key[:2]>/<key>.pkl

where ``key`` is the 64-hex-character content digest. An entry is a short
header — :data:`_ENTRY_MAGIC` and the BLAKE2b digest of the pickle bytes —
followed by the pickled value. Reads verify the digest, so a flipped bit
or a truncated write is a miss, never a wrong answer. Writes go through a
temporary file and :func:`os.replace` so concurrent workers never observe
a torn entry.
"""

from __future__ import annotations

# cache-key-input: this module *is* the cache-key construction; grep for
# this marker to enumerate the CACHE_SCHEMA_VERSION blast radius.

import hashlib
import os
import pickle
import tempfile
import weakref
from pathlib import Path
from typing import Any

import numpy as np

from repro.lp.batched import lp_solver_identity
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.quorums.base import QuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = [
    "CACHE_DIR_ENV",
    "ResultCache",
    "content_key",
    "default_cache_dir",
    "system_fingerprint",
    "topology_fingerprint",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Folded into every content key. Bump this whenever the *behavior* behind
#: cached results changes (simulation kernel, placement constructions, LP
#: solvers, seed formulas...), so stale entries from older code can never
#: be served for new runs.
#:
#: v2: the access-strategy LP moved to the batched build-once/solve-many
#: backend (warm-started HiGHS when bindings are importable); degenerate
#: optima can tie-break differently than the old per-level scipy path.
#:
#: v3: the fractional-placement LP moved to the same batched backend
#: (assembled once per candidate, load rows rewritten in place, re-solved
#: warm); degenerate fractional optima can round to different placements
#: than the old row-by-row cold path produced.
#:
#: v4: batched-LP solves became canonical — every solve restarts from the
#: program's calibration (anchor) basis, capacity sweeps run in sorted RHS
#: order, and the serial many-to-one search went family-warm — so tied
#: optima now break differently than under v3's chained-warm/cold mix
#: (and identically across schedules, which is the point).
#:
#: v5: Lin–Vitter filtering's keep-tolerance became relative to the row's
#: filtering radius (was an absolute ``+ 1e-12``), so borderline nodes at
#: planet-scale or micro-scale distances can filter differently, changing
#: rounded many-to-one placements behind cached entries.
#:
#: v6: dynamics segment series grew closed-loop columns
#: (``estimation_error``/``staleness``/``probe_operations``), so pickled
#: ``SegmentSeries`` payloads from earlier schemas no longer unpickle
#: into the current dataclass shape.
#:
#: v7: the ``qu_simulation_cell`` key (Figures 3.1/3.2) now hashes the
#: full ``QUExperimentConfig.fingerprint_components()`` instead of only
#: the swept parameters; previously a changed default
#: (``n_client_sites``, ``service_time_ms``, ``network_jitter_ms``)
#: would have silently reused stale cached cells.
#:
#: v8: every key folds in the LP backend and its solver package's version
#: (:func:`~repro.lp.batched.lp_solver_identity`): degenerate LPs return
#: backend-dependent vertices, and a cache filled under one backend used to
#: serve them to the other. Also, one-to-one placements no longer host an
#: element on an under-capacity ``v0`` (``Topology.ball`` adds ``v`` only
#: when it is eligible), which moves placements under non-uniform
#: capacities.
#:
#: v9: entries carry a header with the BLAKE2b digest of their pickle
#: bytes, verified on read; v8 entries (bare pickles) have no header and
#: would read as corrupt, so the bump retires them as plain misses.
CACHE_SCHEMA_VERSION = 9

#: First bytes of every entry; the pickle's digest follows.
_ENTRY_MAGIC = b"repro-cache\x00"

#: BLAKE2b digest size, in bytes, in the entry header.
_DIGEST_SIZE = 16


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _feed(hasher: "hashlib._Hash", obj: Any) -> None:
    """Feed a canonical byte encoding of ``obj`` into ``hasher``.

    Supports the closed vocabulary grid points are built from; anything
    else is a programming error and raises ``TypeError`` rather than
    silently hashing an unstable ``repr``.
    """
    if obj is None:
        hasher.update(b"\x00N")
    elif isinstance(obj, bool):
        hasher.update(b"\x00b1" if obj else b"\x00b0")
    elif isinstance(obj, int):
        hasher.update(b"\x00i" + str(obj).encode())
    elif isinstance(obj, float):
        hasher.update(b"\x00f" + obj.hex().encode())
    elif isinstance(obj, str):
        hasher.update(b"\x00s" + obj.encode())
    elif isinstance(obj, bytes):
        hasher.update(b"\x00y" + obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        hasher.update(
            b"\x00a" + str(arr.dtype).encode() + str(arr.shape).encode()
        )
        hasher.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        _feed(hasher, obj.item())
    elif isinstance(obj, (list, tuple)):
        hasher.update(b"\x00l" + str(len(obj)).encode())
        for item in obj:
            _feed(hasher, item)
    elif isinstance(obj, dict):
        hasher.update(b"\x00d" + str(len(obj)).encode())
        for key in sorted(obj):
            _feed(hasher, key)
            _feed(hasher, obj[key])
    elif isinstance(obj, (set, frozenset)):
        _feed(hasher, sorted(obj))
    else:
        raise TypeError(
            f"cannot build a stable cache key from {type(obj).__name__!r}"
        )


def _digest(payload: bytes | memoryview) -> bytes:
    """The entry header's digest of an entry's pickle bytes."""
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def content_key(**components: Any) -> str:
    """SHA-256 digest of the canonical encoding of keyword components.

    :data:`CACHE_SCHEMA_VERSION` is folded in, so bumping it invalidates
    every previously cached result at once, and so is the LP backend with
    its solver version, so no backend is served another's optimal vertex.
    Keys depend on content and types, not on spelling order:

    >>> content_key(alpha=7.0, seed=1) == content_key(seed=1, alpha=7.0)
    True
    >>> content_key(x=1) == content_key(x=1.0)  # int and float differ
    False
    >>> len(content_key(x=1))
    64
    """
    hasher = hashlib.sha256()
    _feed(hasher, CACHE_SCHEMA_VERSION)
    _feed(hasher, lp_solver_identity())
    _feed(hasher, components)
    return hasher.hexdigest()


#: Per-object fingerprint memo. Topology arrays are immutable (read-only
#: numpy flags), so hashing the O(n^2) matrix once per object is safe —
#: and matters at scale, where every worker task would otherwise re-hash
#: a multi-thousand-node matrix just to key its program cache.
_TOPOLOGY_FP_MEMO: "weakref.WeakKeyDictionary[Topology, str]" = (
    weakref.WeakKeyDictionary()
)


def topology_fingerprint(topology: Topology) -> str:
    """Digest of everything response times can depend on in a topology."""
    try:
        return _TOPOLOGY_FP_MEMO[topology]
    except KeyError:
        pass
    hasher = hashlib.sha256()
    _feed(
        hasher,
        {
            "rtt": topology.rtt,
            "capacities": topology.capacities,
            "names": list(topology.names),
        },
    )
    digest = hasher.hexdigest()
    _TOPOLOGY_FP_MEMO[topology] = digest
    return digest


def system_fingerprint(system: QuorumSystem) -> str:
    """Digest of a quorum system's structure.

    Threshold systems hash as ``(n, q)``; enumerable systems hash their
    full quorum list, so structurally identical systems collide (good) and
    any change to the construction changes the key (also good).
    """
    hasher = hashlib.sha256()
    if isinstance(system, ThresholdQuorumSystem):
        _feed(
            hasher,
            {
                "kind": "threshold",
                "n": system.universe_size,
                "q": system.quorum_size,
            },
        )
    else:
        _feed(
            hasher,
            {
                "kind": "enumerated",
                "n": system.universe_size,
                "quorums": [sorted(q) for q in system.quorums],
            },
        )
    return hasher.hexdigest()


class ResultCache:
    """Digest-checked pickle store keyed by :func:`content_key` digests.

    With ``max_size_bytes`` set, the cache trims itself back under the
    budget after every store (and once at construction) by deleting the
    oldest entries first — ordered by file modification time, so recently
    written or refreshed results survive longest.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        max_size_bytes: int | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        if max_size_bytes is not None and max_size_bytes <= 0:
            raise ValueError(
                f"max_size_bytes must be positive, got {max_size_bytes}"
            )
        self.max_size_bytes = max_size_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        # Running size estimate so bounded stores stay O(1): refreshed by
        # every full scan (trim), incremented per put. Entries written by
        # concurrent workers are only picked up at the next trim.
        self._approx_size = 0
        if max_size_bytes is not None:
            self.trim()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def lookup(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        A corrupt or unreadable entry counts as a miss (it will be
        overwritten by the next :meth:`put`). An entry whose header or
        digest does not match its bytes also counts ``cache.corrupt``.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            start = len(_ENTRY_MAGIC) + _DIGEST_SIZE
            payload = memoryview(data)[start:]
            if data[:start] != _ENTRY_MAGIC + _digest(payload):
                obs.count("cache.corrupt")
                raise ValueError(f"cache entry {path} fails its digest")
            value = pickle.loads(payload)
        except Exception:  # repro-lint: disable=RL005 -- corrupt entry = cache miss by contract; recomputed and overwritten by the next put
            # Unpickling can raise nearly anything (UnpicklingError,
            # ValueError, EOFError, AttributeError...); any unreadable
            # entry is a miss and will be overwritten.
            self.misses += 1
            obs.count("cache.miss")
            return False, None
        self.hits += 1
        obs.count("cache.hit")
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store a value atomically (temp file + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Overwrites replace an existing entry: account for the bytes the
        # rename releases, or the size estimate creeps upward and triggers
        # spurious early trims.
        old_size = 0
        if self.max_size_bytes is not None:
            try:
                old_size = path.stat().st_size
            except OSError:
                old_size = 0
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY_MAGIC + _digest(payload))
                fh.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        obs.count("cache.store")
        if self.max_size_bytes is not None:
            try:
                self._approx_size += path.stat().st_size - old_size
            except OSError:
                pass
            if self._approx_size > self.max_size_bytes:
                self.trim()

    def size_bytes(self) -> int:
        """Total size of all cached entries on disk."""
        total = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def trim(self) -> int:
        """Evict oldest-mtime entries until the cache fits its
        ``max_size_bytes`` budget; returns the number of entries removed.
        A no-op without a budget.
        """
        budget = self.max_size_bytes
        if budget is None:
            return 0
        entries = []
        total = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another worker
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        # Oldest first; mtime ties break on path, never on size. (Sorting
        # the raw tuples compared st_size on equal mtimes — common on
        # coarse-mtime filesystems and bulk writes — so which entry of a
        # same-age pair survived depended on its payload size.)
        entries.sort(key=lambda entry: (entry[0], entry[2]))
        removed = 0
        for mtime, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self._approx_size = total
        self.evictions += removed
        if removed:
            obs.count("cache.eviction", removed)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        leftover = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                try:
                    leftover += path.stat().st_size
                except OSError:
                    pass
        # Reset the running size estimate — leaving it untouched would
        # carry the deleted bytes forever and force early trims later.
        self._approx_size = leftover
        return removed

    def stats(self) -> dict[str, int]:
        """Snapshot of this cache's effectiveness counters.

        Drivers expose deltas of this on their results (e.g.
        ``run_figure`` under ``FigureResult.metadata["cache"]``), so
        cache behavior is visible without reaching into the cache object.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores}, "
            f"evictions={self.evictions})"
        )
