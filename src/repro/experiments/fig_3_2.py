"""Figure 3.2 — Q/U slices of the Section-3 surface.

(a) 100 clients fixed, faults ``t`` (and hence universe size ``5t+1``) on
the x axis; (b) ``t = 4`` (n = 21) fixed, client count on the x axis. Both
plot average network delay (black bars) and average response time (total
bars); we emit the same two series per slice.

Both slices declare grids of the shared Q/U simulation-cell points from
:mod:`repro.experiments.fig_3_1`, so overlapping cells share cache
entries with the full surface.
"""

from __future__ import annotations

from repro.experiments.fig_3_1 import simulation_cell_point
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.runtime.grid import GridSpec
from repro.runtime.cache import topology_fingerprint  # cache-key-input

__all__ = ["grid_spec_a", "grid_spec_b"]


def grid_spec_a(fast: bool) -> GridSpec:
    """Figure 3.2a's grid: 100 clients, one point per fault parameter."""
    topology = planetlab_50()
    t_values = (1, 3, 5) if fast else (1, 2, 3, 4, 5)
    duration_ms = 1500.0 if fast else 2500.0
    repetitions = 1 if fast else 2
    topo_fp = topology_fingerprint(topology)

    points = tuple(
        simulation_cell_point(
            t, topology, topo_fp, t, 10, duration_ms, repetitions
        )
        for t in t_values
    )

    def assemble(values) -> FigureResult:
        xs = list(t_values)
        resp = [values[t][0] for t in t_values]
        net = [values[t][1] for t in t_values]
        return FigureResult(
            figure_id="fig_3_2a",
            title="Q/U at 100 clients vs number of faults t (n = 5t+1)",
            x_label="faults t",
            y_label="ms",
            series=(
                Series.from_arrays("network delay", xs, net),
                Series.from_arrays("response time", xs, resp),
            ),
            metadata={"topology": "planetlab-50", "clients": 100},
        )

    return GridSpec(
        figure_id="fig_3_2a", points=points, assemble=assemble
    )


def grid_spec_b(fast: bool) -> GridSpec:
    """Figure 3.2b's grid: t = 4, one point per client count."""
    topology = planetlab_50()
    c_values = (1, 5, 10) if fast else tuple(range(1, 11))
    duration_ms = 1500.0 if fast else 2500.0
    repetitions = 1 if fast else 2
    topo_fp = topology_fingerprint(topology)

    points = tuple(
        simulation_cell_point(
            c, topology, topo_fp, 4, c, duration_ms, repetitions
        )
        for c in c_values
    )

    def assemble(values) -> FigureResult:
        xs = [10 * c for c in c_values]
        resp = [values[c][0] for c in c_values]
        net = [values[c][1] for c in c_values]
        return FigureResult(
            figure_id="fig_3_2b",
            title="Q/U at t=4 (n=21) vs number of clients",
            x_label="clients",
            y_label="ms",
            series=(
                Series.from_arrays("network delay", xs, net),
                Series.from_arrays("response time", xs, resp),
            ),
            metadata={"topology": "planetlab-50", "t": 4},
        )

    return GridSpec(
        figure_id="fig_3_2b", points=points, assemble=assemble
    )
