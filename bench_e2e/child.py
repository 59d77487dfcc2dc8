"""One repeat of one workload, in a fresh process.

    python -m bench_e2e.child --workload NAME --work-dir DIR
        [--seed S] [--trace-out TRACE.jsonl]

Set-up is timed from this module's first statement to the first timed
call; the run from there to the last call's return. Without
``--trace-out`` nothing is wrapped or traced. With it, the layer wrappers
are installed and a tracer is active from set-up on; after the run the
trace is written and validated, the per-layer metrics are computed, and
the calls are repeated against the now-warm cache.

Prints one JSON object as the last line of standard output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from bench_e2e import checks, layers  # noqa: E402
from bench_e2e.workloads import WORKLOADS, Workload  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.obs import tracer as obs  # noqa: E402
from repro.obs.summarize import check as check_trace  # noqa: E402
from repro.runtime.cache import ResultCache  # noqa: E402

#: How long to wait for pool workers to exit before reading their CPU time.
_REAP_TIMEOUT_S = 60.0


def _run_calls(
    workload: Workload, inputs: dict, cache: ResultCache, ops: list
) -> dict[str, Any]:
    outputs: dict[str, Any] = {}
    for name, call in workload.calls:
        try:
            outputs[name] = call(inputs, cache)
        except Exception as exc:  # a failed call is a failed operation
            ops.append({"op": name, "ok": False, "error": repr(exc)})
        else:
            ops.append({"op": name, "ok": True})
    return outputs


def _run_checks(workload: Workload, outputs: dict, ops: list) -> None:
    for name, check in workload.checks:
        try:
            check(outputs)
        except (checks.CheckFailed, KeyError, IndexError) as exc:
            ops.append({"op": name, "ok": False, "error": str(exc)})
        else:
            ops.append({"op": name, "ok": True})


def _reap_workers() -> None:
    """Wait for pool workers to exit, so their CPU time is counted."""
    for child in multiprocessing.active_children():
        child.join(_REAP_TIMEOUT_S)


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> dict[str, Any]:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--work-dir", required=True, type=Path)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    cache = ResultCache(args.work_dir / "cache")
    traced = args.trace_out is not None
    tracer = obs.Tracer()

    patches = layers.install() if traced else None
    try:
        if traced:
            obs.activate(tracer)
        with obs.span(layers.SETUP_SPAN):
            inputs = workload.setup(args.seed)

        start = time.perf_counter()
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        ops: list[dict[str, Any]] = []
        with obs.span(layers.RUN_SPAN):
            outputs = _run_calls(workload, inputs, cache, ops)
        wall_s = time.perf_counter() - start
        obs.deactivate()
        _reap_workers()
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

        _run_checks(workload, outputs, ops)
        record: dict[str, Any] = {
            "workload": workload.name,
            "traced": traced,
            "setup_s": start - _T0,
            "wall_s": wall_s,
            "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
            "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
            "ops": ops,
            "digest": checks.digest(outputs),
            "quality": workload.quality(outputs) if all(o["ok"] for o in ops) else {},
        }
        if traced:
            record.update(_traced_pass(workload, args, tracer, inputs, cache))
        return record
    finally:
        obs.deactivate()
        if patches is not None:
            patches.restore()


def _traced_pass(
    workload: Workload,
    args: argparse.Namespace,
    tracer: obs.Tracer,
    inputs: dict,
    cache: ResultCache,
) -> dict[str, Any]:
    """Trace file, per-layer metrics, coverage, and the warm-cache rerun."""
    obs.write_trace(
        args.trace_out,
        tracer,
        config={"workload": workload.name, "seed": args.seed},
    )
    try:
        trace_check = check_trace(args.trace_out)
    except ReproError as exc:  # an invalid trace fails the run, by name
        trace_check = f"invalid: {exc}"
    spans, counters = tracer.export()
    metrics = layers.layer_metrics(spans, counters)
    metrics["runtime.cache.bytes"] = cache.size_bytes()

    before = cache.stats()
    ops: list[dict[str, Any]] = []
    start = time.perf_counter()
    outputs = _run_calls(workload, inputs, cache, ops)
    metrics["runtime.cache.warm_s"] = time.perf_counter() - start
    _reap_workers()
    after = cache.stats()
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    metrics["runtime.cache.warm_hit_ratio"] = hits / lookups if lookups else 0.0
    return {
        "layers": metrics,
        "counters": counters,
        "missing_wrappers": layers.coverage(spans, workload.wrappers),
        "trace_check": trace_check,
        "warm_digest": checks.digest(outputs),
        "warm_ops": ops,
    }


if __name__ == "__main__":
    print(json.dumps(main(), sort_keys=True))
