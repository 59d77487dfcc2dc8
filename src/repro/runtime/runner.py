"""Grid execution: serial, parallel, cached — and safely nestable.

:class:`GridRunner` has two entry points: :meth:`GridRunner.run`
evaluates a batch of grid points and returns ``{tag: result}``, and
:meth:`GridRunner.evaluate` runs a declared
:class:`~repro.runtime.grid.GridSpec` — its points, then the points its
second stage builds from their results — and assembles the result. With
``jobs=1`` (the default) points run in a plain loop in submission order;
with ``jobs>1`` they fan out over a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` that is created lazily on
the first parallel batch and reused by every later batch — one runner,
one pool. Because points are independent and results are keyed by tag,
parallel execution is guaranteed to produce results identical to serial
execution — the equivalence the regression tests in
``tests/test_runtime.py`` pin down to the bit.

Runners nest without nesting pools: every worker process is marked by a
pool initializer, and a ``GridRunner`` used *inside* a worker always runs
its points inline (:attr:`GridRunner.parallel` is False there). That lets
outer code fan grid points out over processes while inner code — e.g. the
best-placement candidate searches inside ``fig_8_9``'s iterative points —
threads its own runner through unconditionally: at the top level it
parallelizes, inside a worker it degrades to the serial loop, and in
neither case is a second process pool ever spawned.

Workers keep no solver state between points: every LP program a point
needs is built inside that point and dropped with it, so the point
computes the same bits whichever worker draws it and whatever that
worker ran before.

When a :class:`~repro.runtime.cache.ResultCache` is attached, points that
declare a ``cache_key`` are looked up before any work is dispatched and
stored after they complete, so only cache misses ever reach the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

# cache-key-input: the runner folds every point's cache_key through
# content_key; scheduling must never reach a key that content does not.
from repro.errors import ReproError
from repro.obs import tracer as obs
from repro.obs.clock import monotonic_ns
from repro.runtime.cache import ResultCache, content_key
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.shm import TopologyBroker

if TYPE_CHECKING:
    from repro.network.graph import Topology

__all__ = [
    "GridRunner",
    "resolve_jobs",
]

#: True in processes spawned by a GridRunner pool (set by the initializer).
_IN_WORKER = False


def _mark_worker() -> None:
    """Pool initializer: brands the process as a worker."""
    global _IN_WORKER
    _IN_WORKER = True
    # Forked workers inherit the parent's active tracer object; events
    # recorded into that copy would be silently lost (and re-activation
    # for a traced task would refuse). Each traced task activates its own
    # worker-local tracer in _invoke_traced instead.
    obs.deactivate()


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all cores.

    >>> resolve_jobs(4)
    4
    >>> resolve_jobs(None) >= 1
    True
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ReproError(f"jobs must be a positive worker count, got {jobs}")
    return jobs


def _invoke(fn: Callable[..., Any], kwargs: dict) -> Any:
    """Top-level trampoline so (fn, kwargs) pairs cross process boundaries."""
    return fn(**kwargs)


def _invoke_traced(
    fn: Callable[..., Any], kwargs: dict
) -> tuple[Any, list[dict[str, Any]], dict[str, int]]:
    """Traced worker trampoline: piggyback local spans on the result.

    When the parent dispatches a batch with tracing active, each task
    records into its own worker-local tracer (solver state and spans both
    stay process-local) and ships ``(value, events, counters)`` back; the
    parent grafts the events under its per-point span in submission
    order, so a parallel run still yields one deterministic merged trace.
    Tracing wraps the same ``fn(**kwargs)`` call ``_invoke`` makes — the
    value (and therefore anything cached) is untouched.
    """
    tracer = obs.Tracer(label="worker")
    obs.activate(tracer)
    try:
        with tracer.span("task"):
            value = fn(**kwargs)
    finally:
        obs.deactivate()
    events, counters = tracer.export()
    return value, events, counters


def _shutdown_pools(holder: list, wait: bool = False) -> None:
    """Finalizer target: shuts down any executor left in ``holder``.

    :meth:`GridRunner.close` waits for the executor's management thread,
    which could otherwise still run when the interpreter's exit hook
    closes its pipes; the garbage-collection finalizer does not wait.
    """
    while holder:
        holder.pop().shutdown(wait=wait, cancel_futures=True)


class GridRunner:
    """Evaluates grid points, optionally in parallel and through a cache.

    The runner is the unit of parallelism: its process pool is created on
    the first parallel batch and shared by every later call, so threading
    one runner through a whole experiment (outer grid points *and* inner
    candidate searches) uses exactly one pool. Use as a context manager —
    or call :meth:`close` — to release the pool deterministically; an
    unclosed runner's pool is torn down when the runner is garbage
    collected.

    >>> point = GridPoint(tag="a", fn=pow, kwargs={"base": 2, "exp": 3})
    >>> with GridRunner() as runner:
    ...     runner.run([point])
    {'a': 8}
    """

    def __init__(
        self, jobs: int | None = 1, cache: ResultCache | None = None
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache = cache
        self._pool_holder: list[ProcessPoolExecutor] = []
        self._broker: TopologyBroker | None = None
        self._finalizer = weakref.finalize(
            self, _shutdown_pools, self._pool_holder
        )

    @property
    def broker(self) -> TopologyBroker:
        """The runner's topology broker (created lazily).

        Searches that fan candidates out through this runner ship the
        topology here once and put the returned handle in every grid
        point, instead of pickling the O(n^2) delay matrix per task. The
        broker's registrations and blocks live as long as the runner:
        :meth:`close` drops them together with the pool.
        """
        if self._broker is None:
            self._broker = TopologyBroker()
        return self._broker

    def ship(self, topology: "Topology") -> object:
        """The payload to put in grid-point kwargs for ``topology``.

        A handle when this runner would actually dispatch to worker
        processes (and shared memory is usable); the topology itself
        otherwise — inline runs need no transport, and
        :func:`repro.runtime.shm.resolve_topology` passes real topologies
        through untouched. Before the pool starts, on the ``fork`` start
        method, the handle names an inherited registration: the workers
        fork after this call and already hold the topology. Only workers
        already running, or started another way, need a shared-memory
        block.
        """
        if not self.parallel:
            return topology
        inherited = (
            not self._pool_holder
            and multiprocessing.get_start_method() == "fork"
        )
        return self.broker.publish(topology, inherited=inherited)

    def run(self, points: Sequence[GridPoint]) -> dict[Hashable, Any]:
        """Evaluate every point; returns results keyed by point tag."""
        points = list(points)
        tags = [p.tag for p in points]
        if len(set(tags)) != len(tags):
            raise ReproError("grid points must carry unique tags")

        results: dict[Hashable, Any] = {}
        keys: dict[Hashable, str] = {}
        pending: list[GridPoint] = []
        for point in points:
            if self.cache is not None and point.cache_key is not None:
                key = content_key(**point.cache_key)
                hit, value = self.cache.lookup(key)
                if hit:
                    results[point.tag] = value
                    continue
                keys[point.tag] = key
            pending.append(point)

        def _record(point: GridPoint, value: Any) -> None:
            # Called per completion, not after the whole batch: results
            # finished before a later point fails are already cached, so
            # a retry only recomputes what actually needs recomputing.
            results[point.tag] = value
            if self.cache is not None and point.tag in keys:
                self.cache.put(keys[point.tag], value)

        tracer = obs.current_tracer()
        if tracer is None:
            self._evaluate(pending, _record, None)
            return results
        with tracer.span(
            "grid.run",
            points=len(points),
            cached=len(points) - len(pending),
            jobs=self.jobs,
        ):
            self._evaluate(pending, _record, tracer)
        return results

    def evaluate(self, spec: GridSpec) -> Any:
        """Run a declared grid and return what its ``assemble`` makes.

        The spec's points run as one batch. A second stage, if the spec
        declares one, is built from their results and runs as a second
        batch; ``assemble`` then sees the results of both.
        """
        results = self.run(spec.points)
        if spec.then is not None:
            more = list(spec.then(results))
            repeated = sorted({str(p.tag) for p in more if p.tag in results})
            if repeated:
                raise ReproError(
                    f"{spec.figure_id}: second-stage tags {repeated} "
                    "repeat first-stage tags"
                )
            results.update(self.run(more))
        return spec.assemble(results)

    @property
    def parallel(self) -> bool:
        """Whether this runner would dispatch a batch to worker processes.

        False inside a pool worker even for ``jobs>1`` — that is the
        nesting guard that keeps a whole experiment on one pool.
        """
        return self.jobs > 1 and not _IN_WORKER

    def _pool(self) -> ProcessPoolExecutor:
        if not self._pool_holder:
            # Workers must inherit this process's resource tracker. One
            # forked before the tracker runs starts its own on its first
            # block attach, and that tracker unlinks the runner's block,
            # with a leak warning, when the worker exits.
            resource_tracker.ensure_running()
            self._pool_holder.append(
                ProcessPoolExecutor(
                    max_workers=self.jobs, initializer=_mark_worker
                )
            )
        return self._pool_holder[0]

    def _evaluate(
        self,
        points: list[GridPoint],
        record: Callable[[GridPoint, Any], None],
        tracer: "obs.Tracer | None",
    ) -> None:
        # A parallel runner dispatches even a single point to the pool:
        # running it inline in the main process would let runners nested
        # inside the point's fn go parallel (the process is not branded as
        # a worker), silently changing which code path computed a result
        # that is cached under a scheduling-independent key.
        if not self.parallel or not points:
            for point in points:
                try:
                    if tracer is None:
                        value = point()
                    else:
                        with tracer.span("grid.point", tag=str(point.tag)):
                            value = point()
                except Exception as exc:
                    raise ReproError(
                        f"grid point {point.tag!r} failed: {exc}"
                    ) from exc
                record(point, value)
            return
        pool = self._pool()
        batch_start = 0 if tracer is None else monotonic_ns()
        submit = _invoke if tracer is None else _invoke_traced
        futures = [
            pool.submit(submit, point.fn, point.kwargs) for point in points
        ]

        def _accept(point: GridPoint, payload: Any) -> Any:
            # Traced batches ship (value, worker events, counters) — see
            # _invoke_traced. Unwrap and graft the worker's spans under a
            # per-point span *before* the value reaches the cache, so a
            # traced run stores exactly the bytes an untraced run would.
            # The per-point span covers dispatch-to-receipt (its duration
            # minus the nested worker "task" span is queue wait plus
            # transport); merges happen in submission order, keeping the
            # merged trace structurally deterministic.
            if tracer is None:
                return payload
            value, events, counters = payload
            point_span = tracer.record_span(
                "grid.point", batch_start, monotonic_ns(),
                tag=str(point.tag),
            )
            tracer.merge(events, counters, parent=point_span)
            return value

        recorded = 0
        try:
            for point, future in zip(points, futures):
                try:
                    value = _accept(point, future.result())
                except Exception as exc:
                    raise ReproError(
                        f"grid point {point.tag!r} failed in a pool "
                        f"worker: {exc}"
                    ) from exc
                record(point, value)
                recorded += 1
        except BaseException as failure:
            # Cancel the still-queued remainder of the batch — points
            # already executing in workers run to completion (they cannot
            # be interrupted) — then salvage whatever finished beyond the
            # failure so cached results survive for a retry.
            for future in futures:
                future.cancel()
            for point, future in list(zip(points, futures))[recorded + 1:]:
                try:
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        record(point, _accept(point, future.result()))
                except Exception:  # repro-lint: disable=RL005 -- salvage of already-finished futures must never mask the original error, which is re-raised right below
                    pass
            if isinstance(failure.__cause__, BrokenExecutor):
                # A dead worker breaks the whole executor for good; drop
                # it so the runner's next batch starts a fresh pool.
                _shutdown_pools(self._pool_holder)
            raise

    def close(self) -> None:
        """Shut down the worker pool, waiting for it, and release the
        broker's registrations and shared memory."""
        _shutdown_pools(self._pool_holder, wait=True)
        if self._broker is not None:
            self._broker.close()
            self._broker = None

    def __enter__(self) -> "GridRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"GridRunner(jobs={self.jobs}, cache={self.cache!r})"
