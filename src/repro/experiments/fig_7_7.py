"""Figure 7.7 — uniform vs non-uniform node capacities (Grid, Planetlab-50).

For each Grid universe and each level ``c_i``, compare LP strategies under
uniform capacities ``cap(v) = c_i`` against the non-uniform heuristic that
spreads capacities over ``[L_opt, c_i]`` inversely to average client
distance. The paper: nearly identical at small ``c_i`` (the interval is
tiny), non-uniform wins as the interval grows.

Declared as one grid point per (Grid side, sweep flavour) pair so the
uniform and non-uniform LP sweeps parallelize independently.
"""

from __future__ import annotations

from repro.core.response_time import alpha_from_demand
from repro.experiments.fig_7_6 import _uniform_sweep
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.capacity_sweep import capacity_levels
from repro.strategies.nonuniform import sweep_nonuniform_capacities

__all__ = ["grid_spec"]


def _nonuniform_sweep(
    topology: Topology, k: int, alpha: float, capacity_steps: int
) -> dict:
    """Non-uniform-capacity LP sweep for one Grid side, as plain tuples.

    All intervals are passed to one sweep call, so the grid point
    amortizes LP assembly over its entire sweep.
    """
    system = GridQuorumSystem(k)
    placed = best_placement(topology, system).placed
    levels = capacity_levels(optimal_load(system).l_opt, capacity_steps)
    sweep = sweep_nonuniform_capacities(placed, alpha, levels=levels)
    return {
        "gammas": tuple(float(g) for g in sweep.gammas),
        "response_times": tuple(float(r) for r in sweep.response_times),
        "infeasible_gammas": sweep.infeasible_gammas,
    }


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    demand: int = 16000,
    grid_sides: tuple[int, ...] | None = None,
    capacity_steps: int | None = None,
) -> GridSpec:
    """Declare Figure 7.7's grid: (k, uniform) and (k, nonuniform) points."""
    if topology is None:
        topology = planetlab_50()
    if grid_sides is None:
        max_k = int(min(49, topology.n_nodes - 1) ** 0.5)
        grid_sides = (2, 7) if fast else tuple(range(2, max_k + 1))
    capacity_steps = capacity_steps or (5 if fast else 10)
    alpha = alpha_from_demand(demand)
    topo_fp = topology_fingerprint(topology)

    points: list[GridPoint] = []
    for k in grid_sides:
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
        points.append(
            GridPoint(
                tag=(k, "uniform"),
                fn=_uniform_sweep,
                kwargs=dict(kwargs),
                cache_key={"figure_point": "uniform_capacity_sweep", **base},
            )
        )
        points.append(
            GridPoint(
                tag=(k, "nonuniform"),
                fn=_nonuniform_sweep,
                kwargs=dict(kwargs),
                cache_key={
                    "figure_point": "nonuniform_capacity_sweep",
                    **base,
                },
            )
        )

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        dropped = {}
        for k in grid_sides:
            uni = values[(k, "uniform")].get("infeasible_capacities", ())
            non = values[(k, "nonuniform")].get("infeasible_gammas", ())
            if uni:
                dropped[f"uniform n={k * k}"] = uni
            if non:
                dropped[f"nonuniform n={k * k}"] = non
        for k in grid_sides:
            uniform = values[(k, "uniform")]
            nonuniform = values[(k, "nonuniform")]
            series.append(
                Series.from_arrays(
                    f"uniform n={k * k}",
                    uniform["capacities"],
                    uniform["response_times"],
                )
            )
            series.append(
                Series.from_arrays(
                    f"nonuniform n={k * k}",
                    nonuniform["gammas"],
                    nonuniform["response_times"],
                )
            )
            series.append(
                Series.from_arrays(
                    f"netdelay n={k * k}",
                    uniform["capacities"],
                    uniform["network_delays"],
                )
            )
        return FigureResult(
            figure_id="fig_7_7",
            title=f"Uniform vs non-uniform capacities, demand={demand}",
            x_label="node capacity (c_i / gamma)",
            y_label="ms",
            series=tuple(series),
            metadata={
                "topology": "planetlab-50",
                "demand": demand,
                **(
                    {"infeasible_levels": dropped} if dropped else {}
                ),
            },
        )

    return GridSpec(
        figure_id="fig_7_7", points=tuple(points), assemble=assemble
    )
