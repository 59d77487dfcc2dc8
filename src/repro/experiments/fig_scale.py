"""fig_scale — hierarchical search quality and cost vs topology size. (Extension.)

The paper's datasets top out at 161 sites; ROADMAP item "scale the search"
asks what the placement machinery does on multi-thousand-site WANs. This
figure sweeps the :func:`~repro.network.generators.synthetic_wan` presets
and, at every size, runs both the exhaustive best-``v0`` search and the
hierarchical cluster-medoid search, recording

* the best average network delay each finds (hierarchical is exact below
  ``exact_threshold`` and a heuristic above it — the gap, if any, is the
  cost of the speedup),
* how many candidates each evaluated (the hierarchical win grows with
  ``n``: exhaustive is ``n``, hierarchical is ``O(sqrt(n) * refine_top)``).

One grid point per topology size. Points for generated presets carry only
``n_sites`` — each worker regenerates its WAN locally rather than
receiving an O(n^2) pickle. An explicit ``topology=`` (e.g. the registry
smoke tests passing planetlab-50) collapses the sweep to one point that
carries that topology itself.
"""

from __future__ import annotations

from repro.experiments.series import FigureResult, Series
from repro.network.generators import synthetic_wan
from repro.network.graph import Topology
from repro.placement.hierarchical import hierarchical_best_placement
from repro.placement.search import best_placement
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.cache import system_fingerprint, topology_fingerprint  # cache-key-input
from repro.runtime.grid import GridPoint, GridSpec

__all__ = ["grid_spec"]

#: Preset sizes swept when no explicit topology is given.
FULL_SIZES = (300, 500, 1000, 2000)
FAST_SIZES = (300, 500)


def _scale_point(
    topology: Topology | None,
    n_sites: int,
    quorum_size: int,
    refine_top: int,
    exact_threshold: int,
) -> dict:
    """Hierarchical vs exhaustive search on one topology, as plain floats."""
    topo = synthetic_wan(n_sites) if topology is None else topology
    system = ThresholdQuorumSystem(quorum_size, quorum_size // 2 + 1)
    hier = hierarchical_best_placement(
        topo,
        system,
        refine_top=refine_top,
        exact_threshold=exact_threshold,
    )
    exhaustive = best_placement(topo, system)
    return {
        "n_sites": topo.n_nodes,
        "hier_delay": float(hier.avg_network_delay),
        "hier_candidates": int(hier.n_candidates),
        "hier_exact": bool(hier.exhaustive),
        "exhaustive_delay": float(exhaustive.avg_network_delay),
        "exhaustive_candidates": len(exhaustive.delays_by_candidate),
    }


def grid_spec(
    topology: Topology | None = None,
    fast: bool = False,
    sizes: tuple[int, ...] | None = None,
    quorum_size: int = 5,
    refine_top: int = 3,
    exact_threshold: int = 200,
) -> GridSpec:
    """Declare the scale sweep: one point per topology size."""
    common = {
        "quorum_size": quorum_size,
        "refine_top": refine_top,
        "exact_threshold": exact_threshold,
    }
    system_fp = system_fingerprint(
        ThresholdQuorumSystem(quorum_size, quorum_size // 2 + 1)
    )
    if topology is not None:
        sizes = (topology.n_nodes,)
        points = (
            GridPoint(
                tag=topology.n_nodes,
                fn=_scale_point,
                kwargs={
                    "topology": topology,
                    "n_sites": topology.n_nodes,
                    **common,
                },
                cache_key={
                    "figure_point": "scale_search",
                    "topology": topology_fingerprint(topology),
                    "system": system_fp,
                    **common,
                },
            ),
        )
        topology_name = f"custom-{topology.n_nodes}"
    else:
        if sizes is None:
            sizes = FAST_SIZES if fast else FULL_SIZES
        points = tuple(
            GridPoint(
                tag=n,
                fn=_scale_point,
                kwargs={"topology": None, "n_sites": n, **common},
                cache_key={
                    "figure_point": "scale_search",
                    # The preset is one canonical matrix per size (seed is
                    # derived from n), so (generator, n) identifies it
                    # without materializing the O(n^2) matrix here.
                    "topology": ("synthetic_wan", n),
                    "system": system_fp,
                    **common,
                },
            )
            for n in sizes
        )
        topology_name = "synthetic-wan"

    def assemble(values) -> FigureResult:
        xs = [values[n]["n_sites"] for n in sizes]
        series = (
            Series.from_arrays(
                "hierarchical delay",
                xs,
                [values[n]["hier_delay"] for n in sizes],
            ),
            Series.from_arrays(
                "exhaustive delay",
                xs,
                [values[n]["exhaustive_delay"] for n in sizes],
            ),
            Series.from_arrays(
                "hierarchical candidates",
                xs,
                [values[n]["hier_candidates"] for n in sizes],
            ),
            Series.from_arrays(
                "exhaustive candidates",
                xs,
                [values[n]["exhaustive_candidates"] for n in sizes],
            ),
        )
        worst_ratio = max(
            values[n]["hier_delay"] / values[n]["exhaustive_delay"]
            for n in sizes
        )
        return FigureResult(
            figure_id="fig_scale",
            title="Hierarchical vs exhaustive best-v0 search at scale",
            x_label="sites",
            y_label="ms / candidates",
            series=series,
            metadata={
                "topology": topology_name,
                "quorum_size": quorum_size,
                "refine_top": refine_top,
                "exact_threshold": exact_threshold,
                "worst_quality_ratio": worst_ratio,
            },
        )

    return GridSpec(figure_id="fig_scale", points=points, assemble=assemble)
