"""Figure 3.1 — Q/U response time and network delay surface.

The paper varies the universe size (``n = 5t + 1`` for ``t = 1..5``) and
the number of clients (``c = 1..10`` clients at each of 10 sites) on the
Planetlab-50 topology and plots average response time and average network
delay. Each cell is the mean of several simulation repetitions with
distinct seeds (the paper ran each experiment 5 times).

Declared as one grid point per (t, clients-per-site) simulation cell —
the embarrassingly parallel shape of the whole Section-3 surface.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import topology_fingerprint  # cache-key-input
from repro.sim.experiment import QUExperimentConfig, run_qu_experiment

__all__ = ["grid_spec", "simulation_cell_point"]


def _cell_base_config(
    t: int, clients_per_site: int, duration_ms: float
) -> QUExperimentConfig:
    """The repetition-0 config of a grid cell; rep ``r`` adds ``r`` to the seed."""
    return QUExperimentConfig(
        t=t,
        clients_per_site=clients_per_site,
        duration_ms=duration_ms,
        warmup_ms=duration_ms * 0.2,
        seed=1000 * t + 10 * clients_per_site,
    )


def _simulate_cell(
    topology: Topology,
    t: int,
    clients_per_site: int,
    duration_ms: float,
    repetitions: int,
) -> tuple[float, float]:
    """Mean (response, network delay) over repetitions for one grid cell."""
    base = _cell_base_config(t, clients_per_site, duration_ms)
    responses, delays = [], []
    for rep in range(repetitions):
        config = replace(base, seed=base.seed + rep)
        result = run_qu_experiment(topology, config)
        responses.append(result.mean_response_ms)
        delays.append(result.mean_network_delay_ms)
    return float(np.mean(responses)), float(np.mean(delays))


def simulation_cell_point(
    tag,
    topology: Topology,
    topo_fp: str,
    t: int,
    clients_per_site: int,
    duration_ms: float,
    repetitions: int,
) -> GridPoint:
    """A cacheable grid point for one Q/U simulation cell.

    Shared by Figures 3.1 and 3.2 so identical cells (same topology,
    ``t``, client count, duration, seeds) resolve to the same cache entry
    regardless of which figure requested them.

    The cache key carries the *full* config fingerprint — not just the
    swept parameters — so changing a ``QUExperimentConfig`` default or
    one of the experiment's constants (``N_CLIENT_SITES``,
    ``SERVICE_TIME_MS``) invalidates cached cells instead of silently
    serving stale results (rule RL003 keeps every config field in it).
    """
    return GridPoint(
        tag=tag,
        fn=_simulate_cell,
        kwargs={
            "topology": topology,
            "t": t,
            "clients_per_site": clients_per_site,
            "duration_ms": duration_ms,
            "repetitions": repetitions,
        },
        cache_key={
            "figure_point": "qu_simulation_cell",
            "topology": topo_fp,
            "config": _cell_base_config(
                t, clients_per_site, duration_ms
            ).fingerprint_components(),
            "repetitions": repetitions,
        },
    )


def grid_spec(fast: bool) -> GridSpec:
    """Declare Figure 3.1's grid: one point per (t, c) simulation cell.

    Series are named ``response n=<n>`` and ``netdelay n=<n>`` with the
    client count on the x axis, which reads the 3-D surface as one curve
    per universe size.
    """
    topology = planetlab_50()
    t_values = (1, 4) if fast else (1, 2, 3, 4, 5)
    clients_per_site_values = (1, 5, 10) if fast else tuple(range(1, 11))
    duration_ms = 1500.0 if fast else 2500.0
    repetitions = 1 if fast else 2
    topo_fp = topology_fingerprint(topology)
    points = tuple(
        simulation_cell_point(
            (t, c), topology, topo_fp, t, c, duration_ms, repetitions
        )
        for t in t_values
        for c in clients_per_site_values
    )

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        for t in t_values:
            xs = [10 * c for c in clients_per_site_values]
            resp = [values[(t, c)][0] for c in clients_per_site_values]
            net = [values[(t, c)][1] for c in clients_per_site_values]
            n = 5 * t + 1
            series.append(Series.from_arrays(f"response n={n}", xs, resp))
            series.append(Series.from_arrays(f"netdelay n={n}", xs, net))
        return FigureResult(
            figure_id="fig_3_1",
            title=(
                "Q/U response time & network delay vs universe size "
                "and clients"
            ),
            x_label="clients",
            y_label="ms",
            series=tuple(series),
            metadata={
                "topology": "planetlab-50",
                "repetitions": repetitions,
                "duration_ms": duration_ms,
            },
        )

    return GridSpec(
        figure_id="fig_3_1", points=points, assemble=assemble
    )
