"""Per-layer attribution, timed from outside the library.

The benchmark wraps each layer's public entry points in spans *from its
own files*: :data:`WRAPPERS` is the one table of (entry point -> span ->
layer), :func:`install` patches the targets in place and returns a
:class:`Patches` handle whose :meth:`Patches.restore` puts every original
back. Functions are patched in every ``repro`` module that bound them by
name (``controller.probe_epoch``, ``fig_6_3.best_placement``, ...), methods
on their class. Spans go through :func:`repro.obs.tracer.span`, so forked
pool workers record into the per-task tracer of
``repro.runtime.runner._invoke_traced`` and their spans come back merged
under the parent's ``grid.point`` span.

:func:`layer_metrics` turns a finished trace into the per-layer numbers
the benchmark reports. A span's *self time* is its duration minus the time
its direct children cover. Parallel ``grid.point`` spans are dropped from
the main-process timeline (they are measured from batch start, so they
overlap); the worker ``task`` subtrees under them are counted as
CPU-seconds of their own layers instead, and the parent's wait shows as
``grid.run`` self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Root spans the benchmark opens around its set-up and its timed calls.
SETUP_SPAN = "bench.setup"
RUN_SPAN = "bench.run"


@dataclass(frozen=True)
class Wrapper:
    """One wrapped public entry point.

    ``target`` is ``"module:qualname"``; ``span`` names the span every call
    records (several targets may share one), and its first dotted part is
    the layer, a ``src/repro`` package name. ``count_attr`` names an
    integer attribute of the bound instance whose growth during the call
    is recorded as the span's ``n`` attribute.
    """

    target: str
    span: str
    count_attr: str | None = None

    @property
    def label(self) -> str:
        return self.target.split(":", 1)[1]


WRAPPERS: tuple[Wrapper, ...] = (
    Wrapper("repro.lp.batched:BatchedProgram.__init__", "lp.build"),
    Wrapper("repro.lp.batched:BatchedProgram.solve", "lp.solve"),
    Wrapper("repro.lp.batched:BatchedProgram.solve_many", "lp.solve"),
    Wrapper("repro.lp.batched:BatchedProgram.update_objective", "lp.update"),
    Wrapper("repro.lp.batched:BatchedProgram.update_le_rows", "lp.update"),
    Wrapper(
        "repro.strategies.lp_optimizer:StrategyProgram.__init__",
        "strategies.assemble",
    ),
    Wrapper(
        "repro.strategies.capacity_sweep:sweep_uniform_capacities",
        "strategies.sweep",
    ),
    Wrapper(
        "repro.placement.fractional:FractionalProgram.__init__",
        "placement.fractional_assemble",
    ),
    Wrapper("repro.placement.search:best_placement", "placement.best"),
    Wrapper("repro.placement.hierarchical:cluster_sites", "placement.cluster"),
    Wrapper(
        "repro.placement.hierarchical:hierarchical_best_placement",
        "placement.hierarchical",
    ),
    Wrapper("repro.core.response_time:evaluate", "core.evaluate"),
    Wrapper("repro.core.iterative:iterative_optimize", "core.iterative"),
    Wrapper(
        "repro.sim.engine:Simulator.run", "sim.engine", "events_processed"
    ),
    Wrapper("repro.sim.generic:GenericQuorumSimulation.run", "sim.generic"),
    Wrapper("repro.sim.fluid:run_fluid", "sim.run_fluid"),
    Wrapper("repro.dynamics.telemetry:probe_epoch", "dynamics.probe"),
    Wrapper(
        "repro.dynamics.telemetry:TelemetryEstimator.observe",
        "dynamics.observe",
    ),
    Wrapper(
        "repro.dynamics.controller:AdaptiveController.run_segment",
        "dynamics.run_segment",
    ),
    Wrapper("repro.runtime.cache:ResultCache.lookup", "runtime.cache_lookup"),
    Wrapper("repro.runtime.cache:ResultCache.put", "runtime.cache_put"),
    Wrapper("repro.runtime.shm:TopologyBroker.publish", "runtime.shm_publish"),
    Wrapper("repro.runtime.shm:resolve_topology", "runtime.shm_resolve"),
    Wrapper("repro.network.datasets:load_topology", "network.load"),
    Wrapper("repro.network.generators:synthetic_wan", "network.load"),
    Wrapper("repro.network.datasets:planetlab_50", "network.load"),
    Wrapper("repro.network.datasets:daxlist_161", "network.load"),
)

#: Module prefixes whose by-name bindings of a wrapped function are patched.
_PATCHED_PREFIXES = ("repro", "bench_e2e")


# -- install / restore -------------------------------------------------------


class Patches:
    """Every attribute :func:`install` replaced, with its original value."""

    def __init__(self) -> None:
        self._applied: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._applied.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._applied:
            owner, attr, original = self._applied.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def _resolve(target: str) -> tuple[Any, str]:
    module_name, qualname = target.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(fn: Callable[..., Any], wrapper: Wrapper) -> Callable[..., Any]:
    from repro.obs import tracer as obs

    name, label, count_attr = wrapper.span, wrapper.label, wrapper.count_attr

    if count_attr is None:

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with obs.span(name, fn=label):
                return fn(*args, **kwargs)

    else:

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with obs.span(name, fn=label) as span:
                before = getattr(args[0], count_attr)
                try:
                    return fn(*args, **kwargs)
                finally:
                    if span is not None:
                        span.annotate(n=getattr(args[0], count_attr) - before)

    return traced


def install(wrappers: Iterable[Wrapper] = WRAPPERS) -> Patches:
    """Wrap every target in ``wrappers``; returns the handle to undo it.

    Targets are imported first, so by-name bindings made at import time
    exist to be patched. Call :meth:`Patches.restore` (or use the handle as
    a context manager) to put the originals back.
    """
    patches = Patches()
    try:
        for wrapper in wrappers:
            owner, attr = _resolve(wrapper.target)
            original = getattr(owner, attr)
            traced = _wrap(original, wrapper)
            if isinstance(owner, type):
                patches.set(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not name.startswith(_PATCHED_PREFIXES):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patches.set(module, binding, traced)
    except BaseException:
        patches.restore()
        raise
    return patches


def coverage(spans: list[dict], expected: Iterable[str]) -> list[str]:
    """The ``expected`` wrapper labels that recorded no span, in order."""
    fired = {s["attrs"].get("fn") for s in spans}
    return [label for label in expected if label not in fired]


# -- self time -----------------------------------------------------------------


def _children(spans: list[dict]) -> dict[int, list[dict]]:
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def _is_parallel_point(span: dict, children: dict[int, list[dict]]) -> bool:
    return span["name"] == "grid.point" and any(
        c["proc"] != span["proc"] for c in children.get(span["id"], ())
    )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time in seconds of every span, keyed by span id.

    Parallel ``grid.point`` spans are left out (no entry): their worker
    subtrees run on another clock and are charged on their own, and the
    parent's wait for them stays in the enclosing ``grid.run``.
    """
    children = _children(spans)
    out: dict[int, float] = {}
    for span in spans:
        if _is_parallel_point(span, children):
            continue
        covered = sum(
            float(c["dur_us"])
            for c in children.get(span["id"], ())
            if c["proc"] == span["proc"]
            and not _is_parallel_point(c, children)
        )
        out[span["id"]] = max(float(span["dur_us"]) - covered, 0.0) / 1e6
    return out


def parallel_runs(spans: list[dict]) -> list[dict]:
    """The ``grid.run`` spans that dispatched points to pool workers."""
    children = _children(spans)
    return [
        s
        for s in spans
        if s["name"] == "grid.run"
        and any(_is_parallel_point(c, children) for c in children.get(s["id"], ()))
    ]


# -- per-layer metrics -------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[dict], counters: dict[str, int]
) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counters.

    The rest need more than the trace: ``runtime.cache.*`` size and warm
    rerun (the child), ``obs.trace_overhead`` (the untraced runs).
    """
    selfs = self_times(spans)
    self_s: Counter[str] = Counter()
    n_spans: Counter[str] = Counter()
    n_fn: Counter[str] = Counter()
    attr_n: Counter[str] = Counter()
    for span in spans:
        name = span["name"]
        n_spans[name] += 1
        n_fn[span["attrs"].get("fn", "")] += 1
        self_s[name] += selfs.get(span["id"], 0.0)
        attr_n[name] += int(span["attrs"].get("n", 0))
        if name == "placement.search":
            attr_n[name] += int(span["attrs"].get("candidates", 0))

    def s(*names: str) -> float:
        return sum(self_s[n] for n in names)

    busy = sum(float(x["dur_us"]) for x in spans if x["name"] == "task") / 1e6
    parallel = parallel_runs(spans)
    capacity = sum(
        float(x["dur_us"]) * int(x["attrs"].get("jobs", 1)) for x in parallel
    ) / 1e6
    wait = sum(selfs[x["id"]] for x in parallel)
    roots = [x for x in spans if x["name"] == RUN_SPAN]
    run_wall = sum(float(x["dur_us"]) for x in roots) / 1e6
    single_solves = n_fn["BatchedProgram.solve"]
    return {
        "lp.build_s": s("lp.build"),
        "lp.build_n": n_spans["lp.build"],
        "lp.solve_s": s("lp.solve"),
        "lp.solve_n": counters.get("lp.solve", 0),
        "lp.calibration_n": counters.get("lp.calibration", 0),
        "lp.warm_hit_ratio": _ratio(
            counters.get("lp.warm_start_hit", 0), single_solves
        ),
        "lp.update_s": s("lp.update"),
        "lp.update_n": counters.get("lp.update", 0),
        "strategies.assemble_s": s("strategies.assemble"),
        "strategies.assemble_n": counters.get("strategy.assemble", 0),
        "strategies.sweep_s": s("strategies.sweep"),
        "placement.fractional_assemble_s": s("placement.fractional_assemble"),
        "placement.fractional_assemble_n": counters.get(
            "fractional.assemble", 0
        ),
        "placement.search_s": s("placement.best", "placement.search"),
        "placement.candidates_n": attr_n["placement.search"],
        "placement.cluster_s": s("placement.cluster"),
        "placement.hierarchical_s": s("placement.hierarchical"),
        "core.evaluate_s": s("core.evaluate"),
        "core.evaluate_n": n_spans["core.evaluate"],
        "core.iterative_s": s("core.iterative"),
        "sim.events_s": s("sim.engine"),
        "sim.events_n": attr_n["sim.engine"],
        "sim.events_per_s": _ratio(attr_n["sim.engine"], s("sim.engine")),
        "sim.generic_s": s("sim.generic", "sim.events", "sim.fluid"),
        "sim.fluid_s": s("sim.run_fluid"),
        "sim.fluid_n": n_spans["sim.run_fluid"],
        "sim.requests_n": counters.get("sim.requests", 0),
        "dynamics.probe_s": s("dynamics.probe"),
        "dynamics.probe_n": n_spans["dynamics.probe"],
        "dynamics.observe_s": s("dynamics.observe"),
        "dynamics.segment_s": s("dynamics.run_segment", "dynamics.segment"),
        "dynamics.replay_s": s("dynamics.placements", "dynamics.replays"),
        "dynamics.epochs_n": counters.get("dynamics.epochs", 0),
        "dynamics.reopt_n": counters.get("dynamics.reopt", 0),
        "runtime.cache.lookup_s": s("runtime.cache_lookup"),
        "runtime.cache.put_s": s("runtime.cache_put"),
        "runtime.cache.put_n": counters.get("cache.store", 0),
        "runtime.shm.publish_s": s("runtime.shm_publish"),
        "runtime.shm.attach_s": s("runtime.shm_resolve"),
        "runtime.shm.fallback_n": counters.get("shm.fallback", 0),
        "runtime.pool.busy_s": busy,
        "runtime.pool.idle_frac": (
            max(1.0 - busy / capacity, 0.0) if capacity else 0.0
        ),
        "runtime.pool.wait_s": wait,
        "runtime.grid.self_s": s("grid.run", "grid.point", "task") - wait,
        "network.load_s": s("network.load"),
        "experiments.figure_self_s": s("figure"),
        "obs.unattributed_frac": _ratio(
            sum(selfs.get(x["id"], 0.0) for x in roots), run_wall
        ),
    }
