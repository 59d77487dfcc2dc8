"""fig_scale — hierarchical search quality and cost vs topology size. (Extension.)

The paper's datasets top out at 161 sites; ROADMAP item "scale the search"
asks what the placement machinery does on multi-thousand-site WANs. This
figure sweeps the :func:`~repro.network.generators.synthetic_wan` presets
and, at every size, runs both the exhaustive best-``v0`` search and the
hierarchical cluster-medoid search, recording

* the best average network delay each finds (hierarchical is exact up
  to ``EXACT_THRESHOLD`` sites and a heuristic above it — the gap, if
  any, is the cost of the speedup),
* how many candidates each evaluated (the hierarchical win grows with
  ``n``: exhaustive is ``n``, hierarchical is ``O(sqrt(n) * REFINE_TOP)``).

One grid point per topology size. A point carries only ``n_sites``: each
worker regenerates its WAN locally rather than receiving an O(n^2)
pickle.
"""

from __future__ import annotations

from repro.experiments.series import FigureResult, Series
from repro.network.generators import synthetic_wan
from repro.placement.hierarchical import (
    EXACT_THRESHOLD,
    REFINE_TOP,
    hierarchical_best_placement,
)
from repro.placement.search import best_placement
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.cache import system_fingerprint  # cache-key-input
from repro.runtime.grid import GridPoint, GridSpec

__all__ = ["grid_spec"]

#: Preset sizes swept.
FULL_SIZES = (300, 500, 1000, 2000)
FAST_SIZES = (300, 500)


def _scale_point(n_sites: int, quorum_size: int) -> dict:
    """Hierarchical vs exhaustive search on one preset, as plain floats."""
    topo = synthetic_wan(n_sites)
    system = ThresholdQuorumSystem(quorum_size, quorum_size // 2 + 1)
    hier = hierarchical_best_placement(topo, system)
    exhaustive = best_placement(topo, system)
    return {
        "n_sites": topo.n_nodes,
        "hier_delay": float(hier.avg_network_delay),
        "hier_candidates": int(hier.n_candidates),
        "hier_exact": bool(hier.exhaustive),
        "exhaustive_delay": float(exhaustive.avg_network_delay),
        "exhaustive_candidates": len(exhaustive.delays_by_candidate),
    }


def grid_spec(fast: bool) -> GridSpec:
    """Declare the scale sweep: one point per topology size."""
    sizes = FAST_SIZES if fast else FULL_SIZES
    quorum_size = 5
    common = {
        "quorum_size": quorum_size,
        "refine_top": REFINE_TOP,
        "exact_threshold": EXACT_THRESHOLD,
    }
    system_fp = system_fingerprint(
        ThresholdQuorumSystem(quorum_size, quorum_size // 2 + 1)
    )
    points = tuple(
        GridPoint(
            tag=n,
            fn=_scale_point,
            kwargs={"n_sites": n, "quorum_size": quorum_size},
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
                "topology": "synthetic-wan",
                **common,
                "worst_quality_ratio": worst_ratio,
            },
        )

    return GridSpec(figure_id="fig_scale", points=points, assemble=assemble)
