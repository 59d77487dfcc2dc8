"""fig_throughput — open-loop saturation sweep, event vs fluid backend. (Extension.)

The paper's evaluation is closed-loop (Section 6), so it never exposes what
happens when offered load approaches server capacity: closed loops
self-throttle. This figure drives the generic simulator *open loop* with a
Poisson arrival sweep and runs every rate through **both** simulation
backends — the discrete-event reference and the vectorized fluid engine —
plotting mean and p95 response time versus offered rate. Two claims are
visible at once:

* the queueing knee: response time grows slowly until per-server
  utilization (``rate * q / n * service``) nears 1, then bends upward;
* backend equivalence: the fluid curve tracks the event curve through the
  knee, which is the distribution-level contract
  (:mod:`repro.sim.fluid`) rendered as a figure.

Per-backend p50/p95/p99 percentiles at every swept rate are surfaced in
the figure metadata. One grid point per (backend, rate) pair, so the
sweep parallelizes fully; point results carry only deterministic
simulation outputs (no wall-clock timing — throughput numbers live in
``benchmarks/bench_sim_throughput.py``, which this figure deliberately
does not duplicate).
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ThresholdBalancedStrategy
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.runtime.grid import GridPoint, GridSpec
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.workload import PoissonArrivals

__all__ = ["grid_spec", "BACKENDS"]

#: Backends swept; also the series grouping in the figure.
BACKENDS = ("events", "fluid")

#: Offered rates (ops/ms). With n=5, q=3, service 1 ms, per-server
#: utilization is 0.6 * rate — the full sweep crosses the knee and stops
#: just short of saturation at rate 5/3.
FULL_RATES = (0.2, 0.5, 0.8, 1.1, 1.3, 1.5)
FAST_RATES = (0.2, 0.6, 1.0)


def _throughput_point(
    topology: Topology,
    backend: str,
    rate_per_ms: float,
    quorum_n: int,
    quorum_q: int,
    service_time_ms: float,
    duration_ms: float,
    warmup_ms: float,
    seed: int,
) -> dict:
    """One (backend, rate) cell: run the sim, return plain floats/ints."""
    system = ThresholdQuorumSystem(quorum_n, quorum_q)
    sites = np.argsort(topology.mean_distances())[:quorum_n]
    placed = PlacedQuorumSystem(
        system, Placement([int(s) for s in sites]), topology
    )
    sim = GenericQuorumSimulation(
        placed,
        ThresholdBalancedStrategy(),
        client_nodes=np.arange(topology.n_nodes),
        service_time_ms=service_time_ms,
        seed=seed,
        arrivals=PoissonArrivals(rate_per_ms=rate_per_ms, seed=seed + 1),
        backend=backend,
    )
    result = sim.run(duration_ms=duration_ms, warmup_ms=warmup_ms)
    conserved = result.requests_issued == (
        result.requests_processed
        + result.requests_dropped
        + result.requests_in_flight
    )
    return {
        "mean_response_ms": float(result.stats.mean_response_ms),
        "mean_network_delay_ms": float(result.stats.mean_network_delay_ms),
        "operations": int(result.operations_completed),
        "max_utilization": float(max(result.server_utilizations)),
        "conserved": bool(conserved),
        **result.stats.percentiles(),
    }


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    rates: tuple[float, ...] | None = None,
    quorum_n: int = 5,
    quorum_q: int = 3,
    service_time_ms: float = 1.0,
    duration_ms: float | None = None,
    seed: int = 11,
) -> GridSpec:
    """Declare the saturation sweep: one point per (backend, rate)."""
    if topology is None:
        topology = planetlab_50()
    if rates is None:
        rates = FAST_RATES if fast else FULL_RATES
    duration_ms = duration_ms or (2_000.0 if fast else 10_000.0)
    warmup_ms = 0.1 * duration_ms
    common = {
        "quorum_n": quorum_n,
        "quorum_q": quorum_q,
        "service_time_ms": service_time_ms,
        "duration_ms": duration_ms,
        "warmup_ms": warmup_ms,
        "seed": seed,
    }
    topo_fp = topology_fingerprint(topology)
    system_fp = system_fingerprint(ThresholdQuorumSystem(quorum_n, quorum_q))

    points = tuple(
        GridPoint(
            tag=(backend, rate),
            fn=_throughput_point,
            kwargs={
                "topology": topology,
                "backend": backend,
                "rate_per_ms": rate,
                **common,
            },
            cache_key={
                "figure_point": "sim_throughput",
                "topology": topo_fp,
                "system": system_fp,
                "backend": backend,
                "rate_per_ms": rate,
                **common,
            },
        )
        for backend in BACKENDS
        for rate in rates
    )
    n_clients = topology.n_nodes

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        percentiles: dict[str, dict[float, dict[str, float]]] = {}
        for backend in BACKENDS:
            cells = [values[(backend, r)] for r in rates]
            series.append(
                Series.from_arrays(
                    f"{backend} mean",
                    rates,
                    [c["mean_response_ms"] for c in cells],
                )
            )
            series.append(
                Series.from_arrays(
                    f"{backend} p95",
                    rates,
                    [c["p95_response_ms"] for c in cells],
                )
            )
            percentiles[backend] = {
                float(r): {
                    "p50_response_ms": c["p50_response_ms"],
                    "p95_response_ms": c["p95_response_ms"],
                    "p99_response_ms": c["p99_response_ms"],
                }
                for r, c in zip(rates, cells)
            }
        conserved = all(
            values[(b, r)]["conserved"] for b in BACKENDS for r in rates
        )
        return FigureResult(
            figure_id="fig_throughput",
            title="Open-loop saturation sweep, event vs fluid backend",
            x_label="offered rate (ops/ms)",
            y_label="response time (ms)",
            series=tuple(series),
            metadata={
                "topology": f"n={n_clients}",
                "quorum": f"threshold({quorum_n},{quorum_q})",
                "service_time_ms": service_time_ms,
                "duration_ms": duration_ms,
                "saturation_rate_per_ms": quorum_n
                / (quorum_q * service_time_ms),
                "request_conservation_ok": conserved,
                "percentiles": percentiles,
            },
        )

    return GridSpec(
        figure_id="fig_throughput", points=points, assemble=assemble
    )
