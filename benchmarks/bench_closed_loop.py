"""Benchmark of closed-loop (telemetry-driven) vs oracle replay, and of
the lockstep controller against one controller per policy.

Closed-loop adaptation pays, per epoch, one fluid-simulator probe plus
the EWMA estimation fold on top of the oracle path's matrix evaluation
and (occasional) warm LP re-solve. This benchmark replays the same
churn-free >= 20-epoch planetlab-50 scenario (diurnal drift + flash
crowd, Grid k=5) in-process:

* one threshold policy through :func:`replay_segment`, oracle and
  closed-loop, for the overhead ratio and the probe throughput;
* the threshold auto-tuner's policy set (``static`` plus four
  thresholds), closed-loop, as five one-policy controllers and as one
  lockstep :class:`AdaptiveController`, asserting equal series and
  counting the fluid passes each takes and the probes the lockstep
  shares;

and records all of it to ``benchmarks/results/bench_closed_loop.json``.

The acceptance bars: the closed loop completes within a bounded factor
of the oracle replay (the probe is a vectorized fluid pass, not an event
loop), and probe telemetry is ingested above a floor rate — so the
measurement plane can never quietly become the bottleneck of the
adaptation loop it feeds.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.dynamics.controller import (
    AdaptiveController,
    parse_policy,
    replay_segment,
)
from repro.obs import tracer as obs
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
#: The closed-loop threshold auto-tuner's policy set (``bench_e2e``'s
#: ``closed-loop`` workload): the static baseline plus four thresholds.
TUNER_POLICIES = (
    "static",
    "threshold:0.02",
    "threshold:0.05",
    "threshold:0.1",
    "threshold:0.2",
)

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


def _controllers(placed, specs, telemetry, stacks):
    """Series of ``specs`` from one lockstep controller per entry of
    ``specs``; returns ``(series, seconds, fluid passes, shared probes)``."""
    tracer = obs.Tracer()
    series = []
    started = time.perf_counter()
    with obs.tracing(tracer):
        for group in specs:
            controller = AdaptiveController(
                placed,
                tuple(parse_policy(spec) for spec in group),
                telemetry=telemetry,
            )
            series.extend(controller.run_segment(*stacks))
    seconds = time.perf_counter() - started
    events, counters = tracer.export()
    passes = sum(event["name"] == "sim.fluid" for event in events)
    return series, seconds, passes, counters.get("dynamics.probe_shared", 0)


def test_closed_loop_overhead_is_bounded(results_dir):
    topology, system, assignment, factors, caps, changed = _scenario_inputs()
    kwargs = dict(
        topology=topology,
        system=system,
        assignment=assignment,
        rtt_factors=factors,
        capacities=caps,
        rtt_changed=changed,
        policies=(POLICY,),
    )

    started = time.perf_counter()
    (oracle,) = replay_segment(**kwargs)
    oracle_s = time.perf_counter() - started

    telemetry = TelemetryConfig(noise=0.05, seed=7)
    started = time.perf_counter()
    (closed,) = replay_segment(telemetry=telemetry, **kwargs)
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

    # The tuner's policies, one controller each and then in lockstep.
    placed = PlacedQuorumSystem(system, Placement(assignment), topology)
    stacks = (factors, caps, changed)
    # Best of three alternating runs of each: the two differ by about as
    # much as one run's timing noise.
    alone_s = lockstep_s = float("inf")
    for _ in range(3):
        alone, seconds, alone_passes, _ = _controllers(
            placed, [(spec,) for spec in TUNER_POLICIES], telemetry, stacks
        )
        alone_s = min(alone_s, seconds)
        lockstep, seconds, lockstep_passes, shared = _controllers(
            placed, [TUNER_POLICIES], telemetry, stacks
        )
        lockstep_s = min(lockstep_s, seconds)
    for one, many in zip(alone, lockstep, strict=True):
        for field in dataclasses.fields(one):
            assert np.array_equal(
                getattr(one, field.name), getattr(many, field.name)
            )
    assert alone_passes == len(TUNER_POLICIES) * N_EPOCHS
    assert lockstep_passes < alone_passes

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
        tuner_policies=list(TUNER_POLICIES),
        one_policy_controllers_seconds=alone_s,
        lockstep_seconds=lockstep_s,
        lockstep_speedup=alone_s / lockstep_s,
        one_policy_probe_passes=alone_passes,
        lockstep_probe_passes=lockstep_passes,
        lockstep_probe_shared=shared,
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
    print(f"   tuner policies: {alone_s * 1000:8.1f} ms alone "
          f"({alone_passes} fluid passes), {lockstep_s * 1000:8.1f} ms "
          f"in lockstep ({lockstep_passes} passes, {shared} shared probes)")

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
        "one_policy_controllers_seconds",
        "lockstep_seconds",
        "one_policy_probe_passes",
        "lockstep_probe_passes",
        "lockstep_probe_shared",
        "timestamp",
    ):
        assert field in record
    assert record["epochs"] >= 20
    assert record["overhead_ratio"] == pytest.approx(
        record["closed_loop_seconds"] / record["oracle_seconds"]
    )
    assert record["overhead_ratio"] <= MAX_OVERHEAD
    assert record["probe_replies_per_second"] >= MIN_PROBE_REPLIES_PER_S
    assert record["lockstep_probe_passes"] < record["one_policy_probe_passes"]
