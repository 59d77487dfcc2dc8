"""Benchmark of the tracing layer's enabled overhead (ISSUE 10).

The observability contract has two halves. Disabled tracing must be free
— ``repro.obs`` helpers reduce to one module-global load — and *enabled*
tracing must stay cheap enough to leave on for real runs. This benchmark
pins the second half on a warm LP workload: the ``iterative_optimize``
LP schedule (planetlab-50, Grid k=5) replayed through one warm
:class:`~repro.placement.fractional.FractionalFamily`,
once untraced and once under an active :class:`~repro.obs.Tracer`. That
path increments the busiest counters in the tree (``lp.solve``,
``lp.update``, ``lp.warm_start_hit``) once per solve, so it bounds the
per-event cost where it matters most.

Both variants are measured best-of-``REPEATS`` wall clock over identical
state (substrate warmed beforehand). The acceptance bar is the ISSUE's:
enabled tracing costs < 5% on this workload. The run writes
``benchmarks/results/bench_obs_overhead.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from _iterative_schedule import replay_family, solve_schedule
from repro.lp import lp_backend_name
from repro.network.datasets import planetlab_50
from repro.obs import Tracer, tracing
from repro.obs.bench import BenchRecorder
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.strategies.capacity_sweep import capacity_levels

GRID_K = 5
N_LEVELS = 5
N_CANDIDATES = 8
MAX_ITERATIONS = 3
REPEATS = 5

#: ISSUE acceptance bar: enabled tracing must cost < 5% wall clock on
#: the warm LP replay workload.
MAX_OVERHEAD = 1.05


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_enabled_tracing_overhead_is_bounded(results_dir):
    topology = planetlab_50()
    system = GridQuorumSystem(GRID_K)
    candidates = np.argsort(topology.mean_distances())[:N_CANDIDATES]
    levels = capacity_levels(optimal_load(system).l_opt, N_LEVELS)
    schedule, total_iterations = solve_schedule(
        topology, system, candidates, levels, MAX_ITERATIONS
    )
    n_solves = len(schedule) * len(candidates)

    def untraced():
        replay_family(topology, system, candidates, schedule)

    def traced():
        with tracing(Tracer(label="bench")):
            replay_family(topology, system, candidates, schedule)

    # Warm all lazily-cached substrate outside both timed windows.
    untraced()

    untraced_s = _best_of(untraced)
    traced_s = _best_of(traced)
    overhead = traced_s / untraced_s

    # One traced run kept for the record: the counter volume the
    # overhead was measured against.
    tracer = Tracer(label="bench")
    with tracing(tracer):
        replay_family(topology, system, candidates, schedule)
    counters = dict(tracer.counters)
    assert counters["lp.solve"] == n_solves
    events_counted = sum(counters.values())

    recorder = BenchRecorder("obs_overhead")
    recorder.update(
        workload="parallel_warm_replay",
        topology="planetlab-50",
        system=f"grid:{GRID_K}",
        capacity_levels=N_LEVELS,
        candidates=N_CANDIDATES,
        iterative_iterations=total_iterations,
        lp_solves=n_solves,
        counter_increments=events_counted,
        backend=lp_backend_name(),
        repeats=REPEATS,
        untraced_seconds=untraced_s,
        traced_seconds=traced_s,
        overhead_ratio=overhead,
        max_overhead_ratio=MAX_OVERHEAD,
    )
    recorder.write(
        results_dir, "bench_obs_overhead.json", counters=counters
    )

    print()
    print(f"== tracing overhead: grid:{GRID_K} on planetlab-50, "
          f"{n_solves} warm solves ==")
    print(f"   backend:    {lp_backend_name()}")
    print(f"   untraced:   {untraced_s * 1000:8.1f} ms")
    print(f"   traced:     {traced_s * 1000:8.1f} ms "
          f"({events_counted} counter increments)")
    print(f"   overhead:   {100 * (overhead - 1):+8.2f}% "
          f"(bar {100 * (MAX_OVERHEAD - 1):.0f}%)")

    assert overhead <= MAX_OVERHEAD  # ISSUE acceptance bar


def test_bench_json_is_machine_readable(results_dir):
    out = results_dir / "bench_obs_overhead.json"
    if not out.exists():
        pytest.skip("overhead benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "benchmark",
        "backend",
        "untraced_seconds",
        "traced_seconds",
        "overhead_ratio",
        "counters",
        "timestamp",
    ):
        assert field in record
    assert record["overhead_ratio"] == pytest.approx(
        record["traced_seconds"] / record["untraced_seconds"]
    )
    assert record["overhead_ratio"] <= record["max_overhead_ratio"]
    assert record["counters"]["lp.solve"] == record["lp_solves"]
