"""Figure 6.4 — Grid closest vs balanced on daxlist-161, demand 1000/4000.

Response time (``alpha = 0.007 * demand``) of the Grid under the closest
and balanced strategies as the universe grows. The paper's observation:
closest wins at low demand, balanced at high demand, and at 1000 the
curves cross repeatedly — the "gray area" motivating LP-tuned strategies.

The grid is declared as one point per Grid side ``k`` (placement search
dominates, and both strategies at every demand reuse the same placement),
evaluated through the shared runtime.
"""

from __future__ import annotations

from repro.core.response_time import alpha_from_demand, evaluate
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import daxlist_161
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.simple import balanced_strategy, closest_strategy

__all__ = ["grid_spec", "grid_sides_for"]


def grid_sides_for(topology: Topology, fast: bool = False) -> list[int]:
    """Grid sides k with k^2 <= |V|, thinned in fast mode."""
    ks = [k for k in range(2, int(topology.n_nodes**0.5) + 1)]
    return ks[::3] or ks[:1] if fast else ks


def _strategy_responses(
    topology: Topology, k: int, demands: tuple[int, ...]
) -> dict:
    """Response times of both strategies for one Grid side, all demands."""
    placed = best_placement(topology, GridQuorumSystem(k)).placed
    out = {}
    for demand in demands:
        alpha = alpha_from_demand(demand)
        for label, factory in (
            ("closest", closest_strategy),
            ("balanced", balanced_strategy),
        ):
            result = evaluate(placed, factory(placed), alpha=alpha)
            out[(label, demand)] = result.avg_response_time
    return out


def grid_spec(fast: bool) -> GridSpec:
    """Declare Figure 6.4's grid: one point per Grid side ``k``."""
    topology = daxlist_161()
    demands = (1000, 4000)
    ks = grid_sides_for(topology, fast=fast)
    topo_fp = topology_fingerprint(topology)

    points = tuple(
        GridPoint(
            tag=k,
            fn=_strategy_responses,
            kwargs={"topology": topology, "k": k, "demands": demands},
            cache_key={
                "figure_point": "grid_closest_balanced_responses",
                "topology": topo_fp,
                "system": system_fingerprint(GridQuorumSystem(k)),
                "demands": list(demands),
            },
        )
        for k in ks
    )

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        for demand in demands:
            for label in ("closest", "balanced"):
                xs = [k * k for k in ks]
                ys = [values[k][(label, demand)] for k in ks]
                series.append(
                    Series.from_arrays(f"{label} demand={demand}", xs, ys)
                )
        return FigureResult(
            figure_id="fig_6_4",
            title="Grid response time, closest vs balanced (daxlist-161)",
            x_label="universe size",
            y_label="ms",
            series=tuple(series),
            metadata={
                "topology": "daxlist-161",
                "demands": list(demands),
                "op_srv_time_ms": 0.007,
            },
        )

    return GridSpec(
        figure_id="fig_6_4", points=points, assemble=assemble
    )
