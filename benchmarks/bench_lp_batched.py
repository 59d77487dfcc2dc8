"""Benchmark of the batched LP backend (build-once/solve-many sweeps).

Measures the acceptance scenario of the batched backend: a 10-level
uniform-capacity sweep on planetlab-50 Grid k=5, per-level path (fresh
constraint assembly + cold scipy solve per level — the shape of the code
before the backend existed) vs batched path (one vectorized assembly, all
levels solved as RHS variants, HiGHS warm starts when bindings import).

The run both asserts the speedup and the batched/per-level equivalence
(same best capacity, objectives within 1e-9) and emits a machine-readable
record to ``benchmarks/results/bench_lp_batched.json`` — the start of the
JSON perf trajectory the roadmap tracks.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import pytest

from repro.core.response_time import alpha_from_demand
from repro.lp.batched import LP_BACKEND_ENV
from repro.obs.bench import BenchRecorder
from repro.network.datasets import planetlab_50
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.strategies.lp_optimizer import StrategyProgram

GRID_K = 5
N_LEVELS = 10
DEMAND = 16000


def _timed(fn, repeats: int = 3):
    """Best-of-``repeats`` wall clock (the standard noise-resistant stat)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@contextmanager
def scipy_backend():
    """Programs built inside take the cold per-variant ``linprog`` path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(LP_BACKEND_ENV, "scipy")
        yield


def _objective(placed, strategy) -> float:
    delta = placed.delay_matrix
    return float((delta * strategy.matrix).sum() / placed.n_nodes)


def _per_level_sweep(placed, levels):
    """The pre-backend shape: one assembly + one cold solve per level."""
    with scipy_backend():
        return [StrategyProgram(placed).solve(float(c)) for c in levels]


def _batched_sweep(placed, levels):
    return StrategyProgram(placed).solve_many([float(c) for c in levels])


def test_batched_lp_sweep_speedup(results_dir):
    topology = planetlab_50()
    system = GridQuorumSystem(GRID_K)
    placed = best_placement(topology, system).placed
    levels = capacity_levels(optimal_load(system).l_opt, N_LEVELS)
    alpha = alpha_from_demand(DEMAND)

    # Warm lazily-cached substrate (delay matrices, incidence counts) so
    # both measurements see the same state.
    _batched_sweep(placed, levels)

    per_level_s, per_level = _timed(lambda: _per_level_sweep(placed, levels))
    batched_s, batched = _timed(lambda: _batched_sweep(placed, levels))
    speedup = per_level_s / batched_s
    backend = StrategyProgram(placed).backend

    # Equivalence: every level feasible on both paths, objectives within
    # 1e-9, and the full sweeps pick the same best capacity.
    assert all(s is not None for s in per_level)
    assert all(s is not None for s in batched)
    max_objective_gap = max(
        abs(_objective(placed, a) - _objective(placed, b))
        for a, b in zip(per_level, batched)
    )
    assert max_objective_gap <= 1e-9

    batched_best = sweep_uniform_capacities(
        placed, alpha, levels=levels
    ).best.capacity
    with scipy_backend():
        per_level_best = sweep_uniform_capacities(
            placed, alpha, levels=levels
        ).best.capacity
    assert batched_best == per_level_best

    recorder = BenchRecorder("lp_batched_sweep")
    recorder.update(
        topology="planetlab-50",
        system=f"grid:{GRID_K}",
        capacity_levels=N_LEVELS,
        demand=DEMAND,
        backend=backend,
        per_level_seconds=per_level_s,
        batched_seconds=batched_s,
        speedup=speedup,
        max_objective_gap=max_objective_gap,
        best_capacity=float(batched_best),
        best_capacity_matches_per_level=bool(
            batched_best == per_level_best
        ),
    )
    recorder.write(results_dir, "bench_lp_batched.json")

    print()
    print(f"== batched LP sweep: grid:{GRID_K} on planetlab-50, "
          f"{N_LEVELS} levels ==")
    print(f"   backend:          {backend}")
    print(f"   per-level sweep:  {per_level_s * 1000:8.1f} ms")
    print(f"   batched sweep:    {batched_s * 1000:8.1f} ms")
    print(f"   speedup:          {speedup:8.2f}x")
    print(f"   max obj gap:      {max_objective_gap:.2e}")

    if backend == "scipy":
        # Without HiGHS bindings only assembly (not the cold solve) is
        # amortized — require batching not to lose (with a noise margin),
        # not the warm-start factor.
        assert speedup >= 0.9
    else:
        assert speedup >= 3.0


def test_bench_json_is_machine_readable(results_dir):
    """The JSON record smoke: written by the speedup test, parseable,
    and carrying the fields the perf trajectory needs."""
    out = results_dir / "bench_lp_batched.json"
    if not out.exists():
        pytest.skip("speedup benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "benchmark",
        "backend",
        "per_level_seconds",
        "batched_seconds",
        "speedup",
        "timestamp",
    ):
        assert field in record
    assert record["per_level_seconds"] > 0
    assert record["batched_seconds"] > 0
    assert record["speedup"] == pytest.approx(
        record["per_level_seconds"] / record["batched_seconds"]
    )
