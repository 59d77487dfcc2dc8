"""Figure 7.6 — Grid response/delay vs (universe size, uniform capacity).

Planetlab-50, demand 16000. For every Grid universe and every capacity
level ``c_i = L_opt + i (1 - L_opt)/10``, LP (4.3)-(4.6) is solved with all
capacities equal to ``c_i`` and the resulting strategies are evaluated.
Raising capacities lets clients use closer quorums (network delay falls)
but concentrates load (response time rises under high demand).

Declared as one grid point per Grid side ``k`` (each point runs its own
capacity sweep; the LP solves dominate and are independent across sides).
"""

from __future__ import annotations

from repro.core.response_time import alpha_from_demand
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)

__all__ = ["grid_spec"]


def _uniform_sweep(
    topology: Topology, k: int, alpha: float, capacity_steps: int
) -> dict:
    """Uniform-capacity LP sweep for one Grid side, as plain tuples.

    The whole level family is passed to one sweep call, so the grid point
    amortizes LP assembly (and solver warm starts) over its entire sweep.
    """
    system = GridQuorumSystem(k)
    placed = best_placement(topology, system).placed
    levels = capacity_levels(optimal_load(system).l_opt, capacity_steps)
    sweep = sweep_uniform_capacities(placed, alpha, levels=levels)
    return {
        "capacities": tuple(float(c) for c in sweep.capacities),
        "response_times": tuple(float(r) for r in sweep.response_times),
        "network_delays": tuple(float(d) for d in sweep.network_delays),
        "infeasible_capacities": sweep.infeasible_capacities,
    }


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    demand: int = 16000,
    grid_sides: tuple[int, ...] | None = None,
    capacity_steps: int | None = None,
) -> GridSpec:
    """Declare Figure 7.6's grid: one point per Grid side ``k``.

    The figure has one response and one delay curve per ``k``.
    """
    if topology is None:
        topology = planetlab_50()
    if grid_sides is None:
        max_k = int(min(49, topology.n_nodes - 1) ** 0.5)
        grid_sides = (2, 4, 7) if fast else tuple(range(2, max_k + 1))
    capacity_steps = capacity_steps or (5 if fast else 10)
    alpha = alpha_from_demand(demand)
    topo_fp = topology_fingerprint(topology)

    points = tuple(
        GridPoint(
            tag=k,
            fn=_uniform_sweep,
            kwargs={
                "topology": topology,
                "k": k,
                "alpha": alpha,
                "capacity_steps": capacity_steps,
            },
            cache_key={
                "figure_point": "uniform_capacity_sweep",
                "topology": topo_fp,
                "system": system_fingerprint(GridQuorumSystem(k)),
                "alpha": alpha,
                "capacity_steps": capacity_steps,
            },
        )
        for k in grid_sides
    )

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        dropped = {
            f"n={k * k}": values[k].get("infeasible_capacities", ())
            for k in grid_sides
            if values[k].get("infeasible_capacities")
        }
        for k in grid_sides:
            sweep = values[k]
            series.append(
                Series.from_arrays(
                    f"response n={k * k}",
                    sweep["capacities"],
                    sweep["response_times"],
                )
            )
            series.append(
                Series.from_arrays(
                    f"netdelay n={k * k}",
                    sweep["capacities"],
                    sweep["network_delays"],
                )
            )
        return FigureResult(
            figure_id="fig_7_6",
            title=f"Grid under uniform capacity sweep, demand={demand}",
            x_label="node capacity",
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
        figure_id="fig_7_6", points=points, assemble=assemble
    )
