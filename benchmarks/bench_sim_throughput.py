"""Benchmark of the fluid simulation backend at WAN scale.

The event engine pays a Python callback per message; at the scale the
ISSUE targets (a thousand client sites, ~10^6 requests) a single run is
minutes of interpreter time. The fluid backend
(:mod:`repro.sim.fluid`) evaluates the identical workload model with
array programs — bulk Poisson arrivals, bulk-sampled quorum choices in
one flat request table, one exact (server, arrival) sort and one padded
Lindley pass over every server's queue — so simulated-request throughput
is bounded by numpy, not the event loop.

This benchmark runs the same open-loop scenario (wan-1000, majority 3/5
placed on the lowest-mean-distance sites, balanced strategy, clients on
every node, 1 ops/ms offered) through both backends and records
simulated requests per wall-clock second. The event engine is measured
on a shorter horizon — its cost per simulated request is constant, so
requests/second compares fairly across horizons — while the fluid run
covers the full window. Distributional sanity (means within 10%) and
exact request conservation are asserted on both.

Fast mode (default, CI): 60 s simulated fluid / 5 s events; floors
2.5e5 req/s fluid and 10x over events. Full mode
(``REPRO_BENCH_FULL=1``): 600 s simulated fluid (~1.8M requests) / 30 s
events; floors 1e6 req/s and 50x.

The record also carries one row for the Q/U event path
(:class:`~repro.qu.service.QUService`, built by
:func:`~repro.sim.experiment.build_qu_service`): the ``(t = 3, c = 10)``
cell of Figure 3.2a's fast grid, 16 servers with quorums of 13 on
planetlab-50, simulated for 1500 ms. It records the operations the cell
completes, the engine events it takes, events per completed operation
and operations per wall-clock second. An attempt on ``q`` servers costs
``2q + 1`` events (``q`` request deliveries, ``q`` service completions,
one completion at the client), so events per operation must stay below
``3q``, what one event per message cost. It has no timing floor.

The run writes ``benchmarks/results/bench_sim_throughput.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import full_grids_enabled
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ThresholdBalancedStrategy
from repro.network.datasets import planetlab_50
from repro.network.generators import synthetic_wan
from repro.obs.bench import BenchRecorder
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.experiment import (
    QUExperimentConfig,
    build_qu_service,
    run_qu_experiment,
)
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.metrics import summarize
from repro.sim.workload import PoissonArrivals

FAST = not full_grids_enabled()
N_SITES = 1000
RATE_PER_MS = 1.0
FLUID_DURATION_MS = 60_000.0 if FAST else 600_000.0
EVENTS_DURATION_MS = 5_000.0 if FAST else 30_000.0
WARMUP_FRACTION = 0.1
# Acceptance bars. Fast mode keeps CI honest at a fraction of the full
# run; full mode carries the ISSUE floors: >= 1e6 simulated requests per
# second through the fluid backend, >= 50x over the event engine.
FLUID_FLOOR_REQ_S = 2.5e5 if FAST else 1.0e6
SPEEDUP_FLOOR = 10.0 if FAST else 50.0
# Figure 3.2a's fast-grid cell (t = 3, c = 10); its seed is the figure's
# 1000 t + 10 c and its warmup the figure's fifth of the run.
QU_CELL = QUExperimentConfig(
    t=3, clients_per_site=10, duration_ms=1500.0, warmup_ms=300.0, seed=3100
)


def _scenario(topology):
    system = ThresholdQuorumSystem(5, 3)
    sites = np.argsort(topology.mean_distances())[:5]
    placed = PlacedQuorumSystem(
        system, Placement([int(s) for s in sites]), topology
    )
    return placed


def _timed_run(placed, topology, backend, duration_ms):
    sim = GenericQuorumSimulation(
        placed,
        ThresholdBalancedStrategy(),
        client_nodes=np.arange(topology.n_nodes),
        service_time_ms=1.0,
        seed=17,
        arrivals=PoissonArrivals(rate_per_ms=RATE_PER_MS, seed=18),
        backend=backend,
    )
    started = time.perf_counter()
    result = sim.run(
        duration_ms=duration_ms,
        warmup_ms=WARMUP_FRACTION * duration_ms,
    )
    elapsed = time.perf_counter() - started
    return result, elapsed


@pytest.fixture(scope="module")
def qu_cell():
    """One timed run of the Q/U cell, checked against the figure's own."""
    topology = planetlab_50()
    service, _, _ = build_qu_service(topology, QU_CELL)
    started = time.perf_counter()
    service.run(duration_ms=QU_CELL.duration_ms)
    seconds = time.perf_counter() - started
    records = service.all_records()
    figure_cell = run_qu_experiment(topology, QU_CELL)
    assert summarize(records, warmup_ms=QU_CELL.warmup_ms) == (
        figure_cell.stats
    )
    operations = len(records)
    events = service.sim.events_processed
    return {
        "qu_cell": "fig_3_2a fast (t=3, c=10)",
        "qu_quorum_size": QU_CELL.quorum_size,
        "qu_duration_ms": QU_CELL.duration_ms,
        "qu_seed": QU_CELL.seed,
        "qu_operations": operations,
        "qu_events": events,
        "qu_events_per_operation": events / operations,
        "qu_seconds": seconds,
        "qu_operations_per_second": operations / seconds,
    }


def test_qu_event_path_costs_under_3q_events_per_operation(qu_cell):
    q = qu_cell["qu_quorum_size"]
    assert qu_cell["qu_operations"] > 0
    assert qu_cell["qu_events_per_operation"] < 3 * q

    print()
    print(f"== Q/U event path: {qu_cell['qu_cell']}, q={q} ==")
    print(f"   {qu_cell['qu_operations']:,} operations, "
          f"{qu_cell['qu_events']:,} events "
          f"({qu_cell['qu_events_per_operation']:.1f} per operation, "
          f"below 3q = {3 * q})")
    print(f"   {qu_cell['qu_operations_per_second']:,.0f} operations/s")


def test_fluid_backend_sustains_wan_scale_throughput(results_dir, qu_cell):
    topology = synthetic_wan(N_SITES)
    placed = _scenario(topology)

    # Warm run outside the timed window: numpy dispatch, topology caches.
    _timed_run(placed, topology, "fluid", 2_000.0)

    fluid, fluid_s = _timed_run(
        placed, topology, "fluid", FLUID_DURATION_MS
    )
    events, events_s = _timed_run(
        placed, topology, "events", EVENTS_DURATION_MS
    )

    for r in (fluid, events):
        assert r.requests_issued == (
            r.requests_processed + r.requests_in_flight
        )

    # Same workload model: the distributions must agree, not just the
    # speed. (Different horizons and random streams -> loose tolerance.)
    assert fluid.stats.mean_response_ms == pytest.approx(
        events.stats.mean_response_ms, rel=0.10
    )

    fluid_req_s = fluid.requests_issued / fluid_s
    events_req_s = events.requests_issued / events_s
    speedup = fluid_req_s / events_req_s

    recorder = BenchRecorder("sim_throughput")
    recorder.update(
        mode="fast" if FAST else "full",
        topology=f"synthetic-wan-{N_SITES}",
        n_sites=N_SITES,
        system="majority:simple:2",
        strategy="threshold-balanced",
        rate_per_ms=RATE_PER_MS,
        fluid_duration_ms=FLUID_DURATION_MS,
        events_duration_ms=EVENTS_DURATION_MS,
        fluid_operations=int(fluid.operations_completed),
        fluid_requests=int(fluid.requests_issued),
        fluid_seconds=fluid_s,
        fluid_requests_per_second=fluid_req_s,
        events_operations=int(events.operations_completed),
        events_requests=int(events.requests_issued),
        events_seconds=events_s,
        events_requests_per_second=events_req_s,
        speedup=speedup,
        fluid_mean_response_ms=float(fluid.stats.mean_response_ms),
        events_mean_response_ms=float(events.stats.mean_response_ms),
        fluid_p99_response_ms=float(fluid.stats.p99_response_ms),
        events_p99_response_ms=float(events.stats.p99_response_ms),
        conservation_ok=True,
        fluid_floor_requests_per_second=FLUID_FLOOR_REQ_S,
        speedup_floor=SPEEDUP_FLOOR,
        **qu_cell,
    )
    recorder.write(results_dir, "bench_sim_throughput.json")

    print()
    print(f"== sim throughput: wan-{N_SITES}, {RATE_PER_MS} ops/ms, "
          f"majority 3/5 ==")
    print(f"   fluid:   {fluid.requests_issued:>9,} requests in "
          f"{fluid_s:7.2f} s  ({fluid_req_s:12,.0f} req/s)")
    print(f"   events:  {events.requests_issued:>9,} requests in "
          f"{events_s:7.2f} s  ({events_req_s:12,.0f} req/s)")
    print(f"   speedup: {speedup:8.1f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"   mean:    {fluid.stats.mean_response_ms:8.2f} ms fluid vs "
          f"{events.stats.mean_response_ms:8.2f} ms events")

    assert fluid_req_s >= FLUID_FLOOR_REQ_S
    assert speedup >= SPEEDUP_FLOOR


def test_bench_json_is_machine_readable(results_dir):
    out = results_dir / "bench_sim_throughput.json"
    if not out.exists():
        pytest.skip("sim throughput benchmark has not run in this session")
    record = json.loads(out.read_text())
    for field in (
        "mode",
        "n_sites",
        "fluid_requests",
        "fluid_requests_per_second",
        "events_requests_per_second",
        "speedup",
        "conservation_ok",
        "qu_operations",
        "qu_events",
        "qu_events_per_operation",
        "qu_operations_per_second",
    ):
        assert field in record
    assert record["conservation_ok"] is True
    assert record["speedup"] >= record["speedup_floor"]
    assert (
        record["fluid_requests_per_second"]
        >= record["fluid_floor_requests_per_second"]
    )
    assert record["qu_events_per_operation"] < 3 * record["qu_quorum_size"]
    assert record["qu_events_per_operation"] == pytest.approx(
        record["qu_events"] / record["qu_operations"]
    )
