"""Deterministic tracing and metrics for the runtime, LP, and sim stacks.

A :class:`Tracer` collects **nested spans** (name + monotonic timing +
static attributes) and **typed counters** (monotone integer totals like
``lp.solve`` or ``cache.hit``). Instrumented library code never talks to
a tracer object directly — it calls the module-level :func:`span` /
:func:`count` helpers, which consult the process-wide active tracer:

>>> tracer = Tracer()
>>> with tracing(tracer):
...     with span("demo.phase", size=3):
...         count("demo.items", 3)
>>> tracer.counters["demo.items"]
3

When no tracer is active (the default), :func:`span` returns a shared
no-op context and :func:`count` returns immediately — one global load and
an ``is None`` test, so un-traced runs pay nothing. That fast path is the
first half of the determinism contract; the second half is that tracing
is *observation only*: spans and counters never feed back into results,
scheduling, or cache keys, which the bit-identity tests in
``tests/test_obs.py`` pin (traced == untraced, ``jobs=N == jobs=1``).

Wall time enters through exactly one module — :mod:`repro.obs.clock`,
the RL002 lint allowlist's single entry — so timings are the only
nondeterministic field in a trace and cannot appear anywhere else.

Traces serialize as versioned JSONL (:func:`write_trace`): a manifest
record first (config fingerprint, cache schema, backend choices), one
record per span, and a final counter-totals record. Worker processes
build their own local tracers and ship finished events back piggybacked
on grid-point results; :meth:`Tracer.merge` grafts them under the
parent's per-point span with ids remapped, so a parallel run still
produces one well-formed tree.
"""

from __future__ import annotations

# cache-key-input: the manifest *records* CACHE_SCHEMA_VERSION so a trace
# names the cache generation it observed; tracing never writes keys.

import hashlib
import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager, Iterator

from repro.errors import ReproError
from repro.obs.clock import monotonic_ns, wall_clock_iso

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "activate",
    "build_manifest",
    "count",
    "current_tracer",
    "deactivate",
    "span",
    "tracing",
    "write_trace",
]

#: Version of the JSONL trace format; bumped on any change to record
#: shapes or required manifest fields. ``trace summarize`` refuses traces
#: from other versions instead of misreading them.
TRACE_SCHEMA_VERSION = 1


class Span:
    """One nested span: records its open on ``__enter__``, its duration
    on ``__exit__``. Obtained from :meth:`Tracer.span` / :func:`span`,
    never constructed directly."""

    __slots__ = ("_tracer", "_name", "_attrs", "_event", "_start")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._event: dict[str, Any] | None = None
        self._start = 0

    def __enter__(self) -> "Span":
        self._start = monotonic_ns()
        self._event = self._tracer._open(self._name, self._attrs, self._start)
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._event is not None
        self._tracer._close(self._event, self._start, monotonic_ns())

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span opened."""
        if self._event is None:
            raise ReproError("annotate() outside the span's with-block")
        self._event["attrs"].update(attrs)


class Tracer:
    """Collects spans and counters for one process (or one worker task).

    Events accumulate in open order — deterministic structure for a
    deterministic workload, with only the ``t0_us``/``dur_us`` timing
    fields varying run to run. :meth:`export` hands the finished events
    and counter totals over for serialization or cross-process shipping.
    """

    def __init__(self, label: str = "main") -> None:
        #: Which process recorded the span: ``"main"`` or ``"worker"``.
        self.label = label
        self.counters: dict[str, int] = {}
        self._events: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._t0 = monotonic_ns()

    # -- counters ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- spans ------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager recording one nested span."""
        return Span(self, name, attrs)

    def _open(
        self, name: str, attrs: dict[str, Any], start: int
    ) -> dict[str, Any]:
        event = {
            "type": "span",
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "proc": self.label,
            "t0_us": (start - self._t0) / 1000.0,
            "dur_us": 0.0,
            "attrs": attrs,
        }
        self._stack.append(self._next_id)
        self._next_id += 1
        self._events.append(event)
        return event

    def _close(self, event: dict[str, Any], start: int, end: int) -> None:
        popped = self._stack.pop()
        if popped != event["id"]:
            raise ReproError(
                f"span {event['name']!r} closed out of order "
                f"(innermost open span is id {popped}, "
                f"closing id {event['id']})"
            )
        event["dur_us"] = (end - start) / 1000.0

    def record_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        **attrs: Any,
    ) -> int:
        """Record an already-finished span from explicit timestamps.

        The parallel grid path uses this: the parent observes a point's
        dispatch-to-result window itself (it cannot wrap the worker's
        execution in a ``with`` block) and then grafts the worker's local
        spans underneath via :meth:`merge`. Returns the span id to pass
        as ``merge(..., parent=...)``. The span attaches under the
        currently open span, if any.
        """
        event = {
            "type": "span",
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "proc": self.label,
            "t0_us": (start_ns - self._t0) / 1000.0,
            "dur_us": (end_ns - start_ns) / 1000.0,
            "attrs": attrs,
        }
        self._next_id += 1
        self._events.append(event)
        return int(event["id"])

    def merge(
        self,
        events: list[dict[str, Any]],
        counters: dict[str, int],
        parent: int | None = None,
    ) -> None:
        """Graft another tracer's exported events under span ``parent``.

        Ids are remapped into this tracer's sequence (child traces all
        start at id 1); the child's root spans are re-parented onto
        ``parent``. Counters are summed in. Called once per grid point in
        submission order, so the merged event list is structurally
        deterministic even though workers finished in any order.
        """
        remap: dict[int, int] = {}
        for event in events:
            new_id = self._next_id
            self._next_id += 1
            remap[int(event["id"])] = new_id
            old_parent = event.get("parent")
            grafted = dict(event)
            grafted["id"] = new_id
            grafted["parent"] = (
                remap[int(old_parent)] if old_parent is not None else parent
            )
            self._events.append(grafted)
        for name, n in counters.items():
            self.count(name, n)

    def export(self) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """``(events, counters)`` — the finished records, ready to
        serialize or ship across a process boundary."""
        if self._stack:
            open_names = [
                e["name"] for e in self._events if e["id"] in self._stack
            ]
            raise ReproError(
                f"export() with {len(self._stack)} span(s) still open: "
                f"{open_names}"
            )
        return list(self._events), dict(self.counters)

    def __repr__(self) -> str:
        return (
            f"Tracer(label={self.label!r}, spans={len(self._events)}, "
            f"counters={len(self.counters)})"
        )


# -- the process-wide active tracer ---------------------------------------

_ACTIVE: Tracer | None = None

#: Shared no-op context handed out by :func:`span` when tracing is off.
#: ``nullcontext`` is reusable and reentrant, so one instance serves every
#: disabled call site without an allocation.
_DISABLED: ContextManager[None] = nullcontext()


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def activate(tracer: Tracer) -> None:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ReproError(
            "a tracer is already active; nested activation would "
            "silently split the trace"
        )
    _ACTIVE = tracer


def deactivate() -> None:
    """Remove the active tracer (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Activate ``tracer`` for the duration of the block."""
    activate(tracer)
    try:
        yield tracer
    finally:
        deactivate()


def span(name: str, **attrs: Any) -> ContextManager[Any]:
    """A span on the active tracer — or a shared no-op context."""
    tracer = _ACTIVE
    if tracer is None:
        return _DISABLED
    return tracer.span(name, **attrs)


def count(name: str, n: int = 1) -> None:
    """Bump a counter on the active tracer — no-op when disabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, n)


# -- serialization ---------------------------------------------------------


def build_manifest(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """The trace's first record: what produced it, fingerprinted.

    Captures the schema versions and backend choices a reader needs to
    interpret the records, plus a SHA-256 fingerprint of the caller's
    ``config`` dict (canonical JSON) so two traces of "the same run" can
    be compared by one field.
    """
    import platform

    import numpy

    # Deferred imports: the hot modules these live in import repro.obs
    # themselves, and the manifest is built once per trace, never on the
    # instrumentation fast path.
    from repro.lp.batched import lp_backend_name
    from repro.runtime.cache import CACHE_SCHEMA_VERSION
    from repro.runtime.shm import shm_available

    config = dict(config or {})
    blob = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return {
        "type": "manifest",
        "trace_schema": TRACE_SCHEMA_VERSION,
        "cache_schema": CACHE_SCHEMA_VERSION,
        "lp_backend": lp_backend_name(),
        "shm_available": shm_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "config": config,
        "config_fingerprint": hashlib.sha256(blob).hexdigest(),
        "written_at": wall_clock_iso(),
    }


def write_trace(
    path: "Path | str",
    tracer: Tracer,
    config: dict[str, Any] | None = None,
) -> Path:
    """Serialize a finished tracer to versioned JSONL at ``path``.

    Record order: one manifest, every span in recorded order, one final
    ``counters`` record — the shape ``repro trace summarize`` (and its
    ``--check`` validator) expects.
    """
    events, counters = tracer.export()
    records: list[dict[str, Any]] = [build_manifest(config)]
    records.extend(events)
    records.append({"type": "counters", "counters": counters})
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        encoding="utf-8",
    )
    return out
