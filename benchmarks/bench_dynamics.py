"""Benchmark of warm incremental re-optimization vs cold rebuilds.

The dynamics controller answers every re-optimization against one
persistent program: capacity events are pure RHS re-solves, RTT drift
rewrites the objective in place, and (with HiGHS bindings importable) each
solve restarts from the program's anchor basis. The baseline here,
:class:`ColdRebuildController`, is what a controller without the
build-once/solve-many machinery would do — assemble a fresh
:class:`StrategyProgram` and solve it from scratch at every epoch.

This benchmark replays the same >= 20-epoch planetlab-50 scenario
(diurnal RTT drift + a flash-crowd capacity crunch, Grid k=5, clairvoyant
policy so *every* epoch re-optimizes) through both controllers in-process
— no pool scheduling noise — asserts the per-epoch objectives agree within
1e-9, and records the speedup to
``benchmarks/results/bench_dynamics.json``.

The acceptance bar: warm-incremental beats cold-rebuild-per-epoch by
>= 2x with HiGHS warm starts (on the forced scipy fallback only assembly
is amortized, so the bar is parity within noise).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.dynamics.controller import AdaptiveController, parse_policy
from repro.obs.bench import BenchRecorder
from repro.dynamics.replay import _segment_placement
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
)
from repro.lp import lp_backend_name
from repro.network.datasets import planetlab_50
from repro.quorums.grid import GridQuorumSystem
from repro.strategies.lp_optimizer import StrategyProgram

GRID_K = 5
N_EPOCHS = 24


class ColdRebuildController(AdaptiveController):
    """The baseline: a fresh program assembled and solved cold at every
    re-optimization."""

    def _reoptimize(self, delta, capacities):
        program = StrategyProgram(self.placed, delay_matrix=delta)
        # A single-variant batch is exactly one cold solve — no anchor
        # calibration — which is what a from-scratch rebuild would pay.
        strategy = program.solve_many([capacities])[0]
        matrix = None if strategy is None else strategy.matrix
        return matrix, program.lp_solves, 1


def _replay(controller_cls, topology, system, assignment, policy, stacks):
    placed = PlacedQuorumSystem(system, Placement(assignment), topology)
    controller = controller_cls(placed, parse_policy(policy))
    return controller.run_segment(*stacks)


def _scenario_inputs():
    """(sub topology, system, assignment, per-epoch stacks) for the
    single-segment benchmark scenario."""
    topology = planetlab_50()
    system = GridQuorumSystem(GRID_K)
    trace = combine(
        diurnal_scenario(
            topology, N_EPOCHS, seed=7, amplitude=0.35, period=12
        ),
        flash_crowd_scenario(
            topology, N_EPOCHS, seed=8, fraction=0.3, depth=0.6, waves=2
        ),
    )
    states = trace.states(topology)
    assert trace.segments() == [(0, N_EPOCHS)]  # churn-free: one segment
    candidates = np.argsort(topology.mean_distances())[:10]
    assignment = _segment_placement(
        topology, system, states[0].up_nodes, candidates
    )
    factors = np.stack([s.rtt_factors for s in states])
    caps = np.stack([s.capacities for s in states])
    changed = np.array([s.rtt_changed for s in states])
    return topology, system, assignment, factors, caps, changed


def test_warm_incremental_beats_cold_rebuild(results_dir):
    topology, system, assignment, factors, caps, changed = _scenario_inputs()
    kwargs = dict(
        topology=topology,
        system=system,
        assignment=assignment,
        policy="periodic:1",  # clairvoyant: re-optimize every epoch
        stacks=(factors, caps, changed),
    )

    started = time.perf_counter()
    cold = _replay(ColdRebuildController, **kwargs)
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = _replay(AdaptiveController, **kwargs)
    warm_s = time.perf_counter() - started
    speedup = cold_s / warm_s

    backend = lp_backend_name()

    # Same LPs on both paths: per-epoch objectives agree within solver
    # tolerance (tied vertices may differ — the canonical tie-break keeps
    # each path deterministic on its own).
    assert warm.reoptimized.all() and cold.reoptimized.all()
    max_gap = float(
        np.abs(warm.expected_delay - cold.expected_delay).max()
    )
    assert max_gap <= 1e-9

    # Cold pays one assembly per epoch; incremental one per segment.
    assert int(cold.assemblies.sum()) == N_EPOCHS
    assert int(warm.assemblies.sum()) == 1

    recorder = BenchRecorder("dynamics_incremental")
    recorder.update(
        topology="planetlab-50",
        system=f"grid:{GRID_K}",
        epochs=N_EPOCHS,
        scenario="diurnal+flash-crowd",
        policy="clairvoyant",
        backend=backend,
        cold_rebuild_seconds=cold_s,
        warm_incremental_seconds=warm_s,
        speedup=speedup,
        cold_assemblies=int(cold.assemblies.sum()),
        warm_assemblies=int(warm.assemblies.sum()),
        cold_lp_solves=int(cold.lp_solves.sum()),
        warm_lp_solves=int(warm.lp_solves.sum()),
        max_objective_gap=max_gap,
    )
    record = recorder.write(results_dir, "bench_dynamics.json")

    print()
    print(f"== dynamics re-optimization: grid:{GRID_K} on planetlab-50, "
          f"{N_EPOCHS} epochs, clairvoyant ==")
    print(f"   backend:          {backend}")
    print(f"   cold rebuild:     {cold_s * 1000:8.1f} ms "
          f"({record['cold_assemblies']} assemblies, "
          f"{record['cold_lp_solves']} solves)")
    print(f"   warm incremental: {warm_s * 1000:8.1f} ms "
          f"({record['warm_assemblies']} assembly, "
          f"{record['warm_lp_solves']} solves)")
    print(f"   speedup:          {speedup:8.2f}x")
    print(f"   max obj gap:      {max_gap:.2e}")

    if backend == "scipy":
        # No warm starts without HiGHS bindings: incremental amortizes
        # assembly only. Require parity within noise, not the warm factor.
        assert speedup >= 0.9
    else:
        assert speedup >= 2.0  # ISSUE acceptance bar


def test_bench_json_is_machine_readable(results_dir):
    out = results_dir / "bench_dynamics.json"
    if not out.exists():
        pytest.skip("speedup benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "benchmark",
        "backend",
        "epochs",
        "cold_rebuild_seconds",
        "warm_incremental_seconds",
        "speedup",
        "max_objective_gap",
        "timestamp",
    ):
        assert field in record
    assert record["epochs"] >= 20
    assert record["speedup"] == pytest.approx(
        record["cold_rebuild_seconds"] / record["warm_incremental_seconds"]
    )
    assert record["max_objective_gap"] <= 1e-9
    if record["backend"] != "scipy":
        assert record["speedup"] >= 2.0
