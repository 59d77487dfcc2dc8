"""Figure 6.5 — Grid at demand 16000 on daxlist-161.

Network delay and response time for both strategies on one plot. The
paper's key effect: with load dominating, the balanced strategy's response
time *decreases* as the universe grows (dispersion beats the extra network
delay), while closest — with no balancing guarantee — does not enjoy this.

Declared as one grid point per Grid side ``k``.
"""

from __future__ import annotations

from repro.core.response_time import alpha_from_demand, evaluate
from repro.experiments.fig_6_4 import grid_sides_for
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import daxlist_161
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.simple import balanced_strategy, closest_strategy

__all__ = ["grid_spec"]


def _strategy_profiles(topology: Topology, k: int, alpha: float) -> dict:
    """(net delay, response) of both strategies for one Grid side."""
    placed = best_placement(topology, GridQuorumSystem(k)).placed
    out = {}
    for label, factory in (
        ("closest", closest_strategy),
        ("balanced", balanced_strategy),
    ):
        result = evaluate(placed, factory(placed), alpha=alpha)
        out[f"netdelay {label}"] = result.avg_network_delay
        out[f"response {label}"] = result.avg_response_time
    return out


def grid_spec(fast: bool) -> GridSpec:
    """Declare Figure 6.5's grid: one point per Grid side ``k``."""
    topology = daxlist_161()
    demand = 16000
    ks = grid_sides_for(topology, fast=fast)
    alpha = alpha_from_demand(demand)
    topo_fp = topology_fingerprint(topology)

    points = tuple(
        GridPoint(
            tag=k,
            fn=_strategy_profiles,
            kwargs={"topology": topology, "k": k, "alpha": alpha},
            cache_key={
                "figure_point": "grid_strategy_profiles",
                "topology": topo_fp,
                "system": system_fingerprint(GridQuorumSystem(k)),
                "alpha": alpha,
            },
        )
        for k in ks
    )

    labels = (
        "netdelay closest",
        "response closest",
        "netdelay balanced",
        "response balanced",
    )

    def assemble(values) -> FigureResult:
        xs = [k * k for k in ks]
        return FigureResult(
            figure_id="fig_6_5",
            title=f"Grid with client demand = {demand} (daxlist-161)",
            x_label="universe size",
            y_label="ms",
            series=tuple(
                Series.from_arrays(
                    label, xs, [values[k][label] for k in ks]
                )
                for label in labels
            ),
            metadata={"topology": "daxlist-161", "demand": demand},
        )

    return GridSpec(
        figure_id="fig_6_5", points=points, assemble=assemble
    )
