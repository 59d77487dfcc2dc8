"""Benchmark of closed-loop (telemetry-driven) vs oracle replay.

Closed-loop adaptation pays, per epoch, one fluid-simulator probe plus
the EWMA estimation fold on top of the oracle path's matrix evaluation
and (occasional) warm LP re-solve. This benchmark replays the same
churn-free >= 20-epoch planetlab-50 scenario (diurnal drift + flash
crowd, Grid k=5, threshold policy) through :func:`replay_segment` twice
— oracle and closed-loop, in-process — and records the overhead ratio
and the probe throughput to
``benchmarks/results/bench_closed_loop.json``.

The acceptance bars: the closed loop completes within a bounded factor
of the oracle replay (the probe is a vectorized fluid pass, not an event
loop), and probe telemetry is ingested above a floor rate — so the
measurement plane can never quietly become the bottleneck of the
adaptation loop it feeds.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.dynamics.controller import replay_segment
from repro.obs.bench import BenchRecorder
from repro.dynamics.replay import _segment_placement
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
)
from repro.dynamics.telemetry import PROBE_BACKEND, TelemetryConfig
from repro.lp import lp_backend_name
from repro.network.datasets import planetlab_50
from repro.quorums.grid import GridQuorumSystem

GRID_K = 5
N_EPOCHS = 24
POLICY = "threshold:0.05"

#: Closed-loop wall-clock must stay within this factor of the oracle
#: replay (measured ~2-2.5x on a 2-core x86-64 host: one 500 ms fluid probe
#: per epoch vs a pure matrix evaluation; generous headroom for CI
#: jitter).
MAX_OVERHEAD = 15.0

#: Probe replies ingested per second of closed-loop replay time
#: (measured >= 100k/s; the floor catches an accidental fall-back to
#: per-message Python bookkeeping).
MIN_PROBE_REPLIES_PER_S = 10_000.0


def _scenario_inputs():
    topology = planetlab_50()
    system = GridQuorumSystem(GRID_K)
    trace = combine(
        diurnal_scenario(
            topology, N_EPOCHS, seed=7, amplitude=0.35, period=12
        ),
        flash_crowd_scenario(
            topology, N_EPOCHS, seed=8, fraction=0.2, depth=0.8, waves=2
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


def test_closed_loop_overhead_is_bounded(results_dir):
    topology, system, assignment, factors, caps, changed = _scenario_inputs()
    kwargs = dict(
        topology=topology,
        system=system,
        assignment=assignment,
        rtt_factors=factors,
        capacities=caps,
        rtt_changed=changed,
        policy=POLICY,
    )

    started = time.perf_counter()
    oracle = replay_segment(**kwargs)
    oracle_s = time.perf_counter() - started

    telemetry = TelemetryConfig(noise=0.05, seed=7)
    started = time.perf_counter()
    closed = replay_segment(telemetry=telemetry, **kwargs)
    closed_s = time.perf_counter() - started

    overhead = closed_s / oracle_s
    probe_replies = int(closed.probe_operations.sum())
    replies_per_s = probe_replies / closed_s
    backend = lp_backend_name()

    # The closed loop really measured something every epoch...
    assert closed.probe_operations.min() > 0
    assert closed.estimation_error.mean() > 0
    # ...and the oracle path stayed measurement-free.
    assert int(oracle.probe_operations.sum()) == 0
    assert oracle.estimation_error.max() == 0.0  # repro-lint: disable=RL006 -- oracle never estimates: identically zero by construction

    recorder = BenchRecorder("closed_loop_overhead")
    recorder.update(
        topology="planetlab-50",
        system=f"grid:{GRID_K}",
        epochs=N_EPOCHS,
        scenario="diurnal+flash-crowd",
        policy=POLICY,
        backend=backend,
        probe_backend=PROBE_BACKEND,
        noise=telemetry.noise,
        oracle_seconds=oracle_s,
        closed_loop_seconds=closed_s,
        overhead_ratio=overhead,
        probe_replies=probe_replies,
        probe_replies_per_second=replies_per_s,
        oracle_reopts=int(oracle.reoptimized.sum()),
        closed_loop_reopts=int(closed.reoptimized.sum()),
        mean_estimation_error=float(closed.estimation_error.mean()),
    )
    record = recorder.write(results_dir, "bench_closed_loop.json")

    print()
    print(f"== closed-loop overhead: grid:{GRID_K} on planetlab-50, "
          f"{N_EPOCHS} epochs, {POLICY} ==")
    print(f"   backend:        {backend} (probe: {PROBE_BACKEND})")
    print(f"   oracle replay:  {oracle_s * 1000:8.1f} ms "
          f"({record['oracle_reopts']} reopts)")
    print(f"   closed loop:    {closed_s * 1000:8.1f} ms "
          f"({record['closed_loop_reopts']} reopts, "
          f"{probe_replies} probe replies)")
    print(f"   overhead:       {overhead:8.2f}x")
    print(f"   probe ingest:   {replies_per_s:10.0f} replies/s")

    assert overhead <= MAX_OVERHEAD
    assert replies_per_s >= MIN_PROBE_REPLIES_PER_S


def test_bench_json_is_machine_readable(results_dir):
    out = results_dir / "bench_closed_loop.json"
    if not out.exists():
        pytest.skip("overhead benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "benchmark",
        "backend",
        "probe_backend",
        "epochs",
        "oracle_seconds",
        "closed_loop_seconds",
        "overhead_ratio",
        "probe_replies",
        "probe_replies_per_second",
        "timestamp",
    ):
        assert field in record
    assert record["epochs"] >= 20
    assert record["overhead_ratio"] == pytest.approx(
        record["closed_loop_seconds"] / record["oracle_seconds"]
    )
    assert record["overhead_ratio"] <= MAX_OVERHEAD
    assert record["probe_replies_per_second"] >= MIN_PROBE_REPLIES_PER_S
