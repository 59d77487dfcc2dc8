"""Figure 8.9 — network delay of the iterative many-to-one approach.

5x5 Grid on Planetlab-50. For each uniform capacity level the iterative
algorithm (Section 4.2) runs with that ``cap0``; the figure plots the
network delay at the end of iterations 1 and 2 against the one-to-one
placement's delay. The paper's findings, which this runner reproduces:
the big win comes from many-to-one collapse in the first phase; iteration 2
adds little; the one-to-one baseline sits well above both.

Declared as one grid point per capacity level plus the one-to-one
baseline point; capacity levels are independent iterative runs. Within a
run both LP families are batched: the strategy LP shares one assembled
program per placement, and the placement phase threads one
``FractionalFamily`` through its whole iteration history, so each
candidate's fractional LP is assembled once and re-solved warm.

A parallel run uses exactly one process pool for the whole figure: the
registry's :class:`~repro.runtime.runner.GridRunner` fans the capacity
levels out over its workers, and each point's inner placement searches
run serially inside the worker that evaluates it. Results are
bit-identical to a serial run (pinned by ``tests/test_runtime.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.iterative import iterative_optimize
from repro.core.response_time import evaluate
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.placement.search import best_placement, uniform_strategy_for
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.capacity_sweep import capacity_levels

__all__ = ["grid_spec"]


def _one_to_one_delay(topology: Topology, k: int) -> float:
    placed = best_placement(topology, GridQuorumSystem(k)).placed
    return evaluate(
        placed, uniform_strategy_for(placed)
    ).avg_network_delay


def _iterative_point(
    topology: Topology,
    k: int,
    capacity: float,
    candidates: object,
) -> tuple[float, float]:
    """(iteration-1 delay, iteration-2 delay) for one capacity level."""
    result = iterative_optimize(
        topology,
        GridQuorumSystem(k),
        capacities=capacity,
        alpha=0.0,
        candidates=candidates,
        max_iterations=3,
    )
    history = result.history
    first = history[0].phase2_network_delay
    second = (
        history[1].phase2_network_delay if len(history) > 1 else first
    )
    return float(first), float(second)


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    k: int = 5,
    capacity_steps: int | None = None,
    candidates: object = None,
) -> GridSpec:
    """Declare Figure 8.9's grid: one point per capacity level + baseline.

    ``candidates`` restricts the best-``v0`` search of the placement phase
    (fast mode uses the 10 nodes with the smallest average client distance,
    which in practice always contains the optimum).
    """
    if topology is None:
        topology = planetlab_50()
    capacity_steps = capacity_steps or (4 if fast else 10)
    system = GridQuorumSystem(k)

    if candidates is None and fast:
        mean_dist = topology.mean_distances()
        candidates = np.argsort(mean_dist)[:10]
    candidate_arr = (
        None if candidates is None else np.asarray(candidates, dtype=np.intp)
    )

    topo_fp = topology_fingerprint(topology)
    sys_fp = system_fingerprint(system)
    levels = [
        float(c) for c in capacity_levels(optimal_load(system).l_opt,
                                          capacity_steps)
    ]

    points: list[GridPoint] = [
        GridPoint(
            tag="one-to-one",
            fn=_one_to_one_delay,
            kwargs={"topology": topology, "k": k},
            cache_key={
                "figure_point": "one_to_one_netdelay",
                "topology": topo_fp,
                "system": sys_fp,
            },
        )
    ]
    for capacity in levels:
        points.append(
            GridPoint(
                tag=("iter", capacity),
                fn=_iterative_point,
                kwargs={
                    "topology": topology,
                    "k": k,
                    "capacity": capacity,
                    "candidates": candidate_arr,
                },
                cache_key={
                    "figure_point": "iterative_netdelay",
                    "topology": topo_fp,
                    "system": sys_fp,
                    "capacity": capacity,
                    "candidates": candidate_arr,
                },
            )
        )

    def assemble(values) -> FigureResult:
        o2o_delay = values["one-to-one"]
        iter1 = [values[("iter", c)][0] for c in levels]
        iter2 = [values[("iter", c)][1] for c in levels]
        return FigureResult(
            figure_id="fig_8_9",
            title=f"Iterative many-to-one, {k}x{k} Grid network delay",
            x_label="node capacity",
            y_label="ms",
            series=(
                Series.from_arrays("netdelay 1st iteration", levels, iter1),
                Series.from_arrays("netdelay 2nd iteration", levels, iter2),
                Series.from_arrays(
                    "netdelay one-to-one", levels, [o2o_delay] * len(levels)
                ),
            ),
            metadata={"topology": "planetlab-50", "k": k},
        )

    return GridSpec(
        figure_id="fig_8_9", points=tuple(points), assemble=assemble
    )
