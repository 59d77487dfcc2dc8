"""Figure 7.8 — the 7x7 Grid (n = 49) capacity slice.

The fixed-universe slice of Figure 7.7: network delay, uniform-capacity
response time and non-uniform-capacity response time against the capacity
level, at demand 16000 on Planetlab-50. Response time rises with capacity
(load concentrates under high demand) but more slowly for the non-uniform
heuristic.

Declared as two grid points — the uniform and non-uniform sweeps of the
single universe — sharing the sweep workers of Figures 7.6/7.7 (and hence
their cache entries).
"""

from __future__ import annotations

from repro.core.response_time import alpha_from_demand
from repro.experiments.fig_7_6 import _uniform_sweep
from repro.experiments.fig_7_7 import _nonuniform_sweep
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input

__all__ = ["grid_spec"]


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    demand: int = 16000,
    k: int = 7,
    capacity_steps: int | None = None,
) -> GridSpec:
    """Declare Figure 7.8's grid: the two sweeps of universe ``k*k``."""
    if topology is None:
        topology = planetlab_50()
    capacity_steps = capacity_steps or (5 if fast else 10)
    alpha = alpha_from_demand(demand)
    topo_fp = topology_fingerprint(topology)
    base = {
        "topology": topo_fp,
        "system": system_fingerprint(GridQuorumSystem(k)),
        "alpha": alpha,
        "capacity_steps": capacity_steps,
    }
    kwargs = {
        "topology": topology,
        "k": k,
        "alpha": alpha,
        "capacity_steps": capacity_steps,
    }
    points = (
        GridPoint(
            tag="uniform",
            fn=_uniform_sweep,
            kwargs=dict(kwargs),
            cache_key={"figure_point": "uniform_capacity_sweep", **base},
        ),
        GridPoint(
            tag="nonuniform",
            fn=_nonuniform_sweep,
            kwargs=dict(kwargs),
            cache_key={"figure_point": "nonuniform_capacity_sweep", **base},
        ),
    )

    def assemble(values) -> FigureResult:
        uniform = values["uniform"]
        nonuniform = values["nonuniform"]
        dropped = {}
        if uniform.get("infeasible_capacities"):
            dropped["uniform"] = uniform["infeasible_capacities"]
        if nonuniform.get("infeasible_gammas"):
            dropped["nonuniform"] = nonuniform["infeasible_gammas"]
        return FigureResult(
            figure_id="fig_7_8",
            title=f"{k}x{k} Grid capacity slice, demand={demand}",
            x_label="node capacity",
            y_label="ms",
            series=(
                Series.from_arrays(
                    "network delay",
                    uniform["capacities"],
                    uniform["network_delays"],
                ),
                Series.from_arrays(
                    "response uniform",
                    uniform["capacities"],
                    uniform["response_times"],
                ),
                Series.from_arrays(
                    "response nonuniform",
                    nonuniform["gammas"],
                    nonuniform["response_times"],
                ),
            ),
            metadata={
                "topology": "planetlab-50",
                "demand": demand,
                "k": k,
                **(
                    {"infeasible_levels": dropped} if dropped else {}
                ),
            },
        )

    return GridSpec(
        figure_id="fig_7_8", points=points, assemble=assemble
    )
