"""Benchmark of the batched fractional-placement LP backend.

Measures the acceptance scenario of ISSUE 3: the fractional LP solved the
way the Section 4.2 iterative algorithm actually solves it — once per
candidate client, every iteration, across a sweep of capacity levels
(fig_8_9's shape: planetlab-50, Grid k=5). The solve schedule is taken
from *real* ``iterative_optimize`` runs (>= 5 iterations in total across
the levels), then replayed through both paths:

* **cold** — a fresh ``FractionalProgram(topology, system, v0)`` per
  solve, then ``solve(capacities=, strategy=)``: the vectorized assembly,
  the calibration solve of the program as built (uniform strategy, the
  topology's capacities), the in-place rewrite of the objective and
  element-load rows and one anchored solve of the request, i.e. what
  every solve would cost if nothing were kept between solves;
* **batched** — one ``FractionalFamily``: per-candidate programs are
  assembled once through the vectorized COO path, later solves only
  rewrite the element-load rows / objective in place and re-solve —
  warm-started when HiGHS bindings import.

Every replayed solve is asserted objective-equivalent within 1e-9.
Batched solves are anchored (each re-solve restarts from the program's
calibration basis, and its answer depends on the requests the program
received before), so they may land on a different vertex of a *tied*
optimum than a fresh program solved for that request alone —
deterministically so, since the replayed sequence is fixed; the bench
records the vertex agreement rate rather than asserting it. (The
row-by-row reference assembly lives in
``tests/test_fractional_batched.py``, which pins it matrix-identical to
the vectorized one.)

The run writes a machine-readable record to
``benchmarks/results/bench_fractional_lp.json``, extending the JSON perf
trajectory started by ``bench_lp_batched.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from _iterative_schedule import replay_family, solve_schedule
from repro.obs.bench import BenchRecorder
from repro.lp import lp_backend_name
from repro.network.datasets import planetlab_50
from repro.placement.fractional import FractionalProgram
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.strategies.capacity_sweep import capacity_levels

GRID_K = 5
N_LEVELS = 5
N_CANDIDATES = 8
MAX_ITERATIONS = 3


def _replay_cold(topology, system, candidates, schedule):
    solutions = []
    for caps, strategy in schedule:
        for v0 in candidates:
            solutions.append(
                FractionalProgram(topology, system, int(v0)).solve(
                    capacities=caps, strategy=strategy
                )
            )
    return solutions


def test_batched_fractional_lp_speedup(results_dir):
    topology = planetlab_50()
    system = GridQuorumSystem(GRID_K)
    candidates = np.argsort(topology.mean_distances())[:N_CANDIDATES]
    levels = capacity_levels(optimal_load(system).l_opt, N_LEVELS)

    # Drives real iterative runs (also warms all lazily-cached substrate:
    # distance rows, delay matrices, incidence counts).
    schedule, total_iterations = solve_schedule(
        topology, system, candidates, levels, MAX_ITERATIONS
    )
    assert total_iterations >= 5  # ISSUE acceptance floor

    started = time.perf_counter()
    cold = _replay_cold(topology, system, candidates, schedule)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    batched = replay_family(topology, system, candidates, schedule)
    batched_s = time.perf_counter() - started
    speedup = cold_s / batched_s

    backend = lp_backend_name()

    # Equivalence: every solve of the family matches a fresh program
    # within 1e-9 on the objective. Vertex identity is not asserted:
    # anchored re-solves canonically tie-break degenerate optima, which
    # need not coincide with the cold path's choice — the agreement rate
    # is recorded instead.
    max_gap = max(
        abs(a.objective - b.objective) for a, b in zip(cold, batched)
    )
    assert max_gap <= 1e-9
    n_solves = len(cold)
    vertex_agree = sum(
        np.allclose(a.x, b.x, atol=1e-9) for a, b in zip(cold, batched)
    )

    recorder = BenchRecorder("fractional_lp_batched")
    recorder.update(
        topology="planetlab-50",
        system=f"grid:{GRID_K}",
        capacity_levels=N_LEVELS,
        candidates=N_CANDIDATES,
        iterative_iterations=total_iterations,
        lp_solves_per_path=n_solves,
        backend=backend,
        cold_seconds=cold_s,
        batched_seconds=batched_s,
        speedup=speedup,
        max_objective_gap=max_gap,
        vertex_agreement=f"{vertex_agree}/{n_solves}",
    )
    recorder.write(results_dir, "bench_fractional_lp.json")

    print()
    print(f"== batched fractional LP: grid:{GRID_K} on planetlab-50, "
          f"{N_LEVELS} levels, {total_iterations} iterations ==")
    print(f"   backend:          {backend}")
    print(f"   lp solves:        {n_solves} per path")
    print(f"   cold replay:      {cold_s * 1000:8.1f} ms")
    print(f"   batched replay:   {batched_s * 1000:8.1f} ms")
    print(f"   speedup:          {speedup:8.2f}x")
    print(f"   max obj gap:      {max_gap:.2e}")
    print(f"   same vertex:      {vertex_agree}/{n_solves}")

    if backend == "scipy":
        # Without HiGHS bindings only assembly (not the cold solve) is
        # amortized — require batching not to lose, not the warm factor
        # (measured 1.03-1.09x on a 2-core x86_64 host).
        assert speedup >= 0.9
    else:
        # Measured 2.0-2.2x against fresh programs on a 2-core x86_64
        # host with scipy's vendored HiGHS bindings; the floor leaves
        # room for timing noise on shared machines.
        assert speedup >= 1.5


def test_bench_json_is_machine_readable(results_dir):
    """Written by the speedup test; parseable; carries the trajectory
    fields."""
    out = results_dir / "bench_fractional_lp.json"
    if not out.exists():
        pytest.skip("speedup benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "benchmark",
        "backend",
        "cold_seconds",
        "batched_seconds",
        "speedup",
        "iterative_iterations",
        "max_objective_gap",
        "timestamp",
    ):
        assert field in record
    assert record["iterative_iterations"] >= 5
    assert record["cold_seconds"] > 0
    assert record["batched_seconds"] > 0
    assert record["speedup"] == pytest.approx(
        record["cold_seconds"] / record["batched_seconds"]
    )
    assert record["max_objective_gap"] <= 1e-9
