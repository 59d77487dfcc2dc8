"""Figure 6.3 — response time vs universe size under low demand.

Planetlab-50, ``alpha = 0``, closest access strategy, one-to-one placements
(best-``v0`` search). One curve per quorum system — the three Majority
families and the Grid — plus the singleton floor. The paper's headline
observations: smaller quorums win; large Majorities hit a critical point;
small-quorum systems track the singleton up to a sizable universe.

The parameter grid is declared as data (:func:`grid_spec`): one
:class:`~repro.runtime.grid.GridPoint` per (system) evaluation, so the
registry can schedule points in parallel and cache them by content hash.
"""

from __future__ import annotations

from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.experiments.series import FigureResult, Series
from repro.network.datasets import planetlab_50
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.placement.singleton import singleton_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import (
    MajorityKind,
    majority,
    majority_universe_sizes,
)
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.strategies.simple import closest_strategy

__all__ = ["grid_spec"]


def _closest_delay(topology: Topology, system) -> float:
    placed = best_placement(topology, system).placed
    return evaluate(placed, closest_strategy(placed)).avg_network_delay


def _singleton_delay(topology: Topology) -> float:
    sing = singleton_placement(topology)
    return evaluate(sing, ExplicitStrategy.uniform(sing)).avg_network_delay


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    max_universe: int | None = None,
) -> GridSpec:
    """Declare Figure 6.3's grid: one point per evaluated quorum system.

    Response time equals network delay here (``alpha = 0``).
    """
    if topology is None:
        topology = planetlab_50()
    if max_universe is None:
        max_universe = min(49, topology.n_nodes - 1)
    topo_fp = topology_fingerprint(topology)

    points: list[GridPoint] = []
    majority_sizes: dict[MajorityKind, list[int]] = {}
    for kind in MajorityKind:
        sizes = majority_universe_sizes(kind, max_universe)
        t_of = {v: i + 1 for i, v in enumerate(sizes)}
        if fast:
            sizes = sizes[::3] or sizes[:1]
        majority_sizes[kind] = sizes
        for n in sizes:
            system = majority(kind, t_of[n])
            points.append(
                GridPoint(
                    tag=("majority", kind.value, n),
                    fn=_closest_delay,
                    kwargs={"topology": topology, "system": system},
                    cache_key={
                        "figure_point": "closest_netdelay",
                        "topology": topo_fp,
                        "system": system_fingerprint(system),
                    },
                )
            )

    ks = list(range(2, int(max_universe**0.5) + 1))
    if fast:
        ks = ks[::2] or ks[:1]
    for k in ks:
        system = GridQuorumSystem(k)
        points.append(
            GridPoint(
                tag=("grid", k),
                fn=_closest_delay,
                kwargs={"topology": topology, "system": system},
                cache_key={
                    "figure_point": "closest_netdelay",
                    "topology": topo_fp,
                    "system": system_fingerprint(system),
                },
            )
        )

    points.append(
        GridPoint(
            tag="singleton",
            fn=_singleton_delay,
            kwargs={"topology": topology},
            cache_key={
                "figure_point": "singleton_netdelay",
                "topology": topo_fp,
            },
        )
    )

    def assemble(values) -> FigureResult:
        series: list[Series] = []
        for kind in MajorityKind:
            xs = majority_sizes[kind]
            ys = [values[("majority", kind.value, n)] for n in xs]
            series.append(
                Series.from_arrays(f"Majority {kind.value}", xs, ys)
            )
        series.append(
            Series.from_arrays(
                "Grid", [k * k for k in ks], [values[("grid", k)] for k in ks]
            )
        )
        all_x = sorted({x for s in series for x in s.x})
        series.append(
            Series.from_arrays(
                "Singleton", all_x, [values["singleton"]] * len(all_x)
            )
        )
        return FigureResult(
            figure_id="fig_6_3",
            title="Response time vs universe size (alpha=0, closest strategy)",
            x_label="universe size",
            y_label="ms",
            series=tuple(series),
            metadata={"topology": "planetlab-50", "alpha": 0.0},
        )

    return GridSpec(
        figure_id="fig_6_3", points=tuple(points), assemble=assemble
    )
