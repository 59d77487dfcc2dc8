"""Quorum placement algorithms (Section 4.1).

One-to-one placements preserve fault tolerance:

* :func:`~repro.placement.one_to_one.majority_ball_placement` — Majorities
  onto the ball of the ``n`` closest (capacity-eligible) nodes;
* :func:`~repro.placement.one_to_one.grid_onion_placement` — the optimal
  single-client Grid construction of Gupta et al.;

many-to-one placements trade fault tolerance for delay:

* :func:`~repro.placement.singleton.singleton_placement` — everything on the
  graph median (Lin's 2-approximation);
* :func:`~repro.placement.many_to_one.many_to_one_placement` — LP relaxation,
  Lin–Vitter filtering, Shmoys–Tardos GAP rounding;

:func:`~repro.placement.search.best_placement` wraps the paper's
"run the single-client algorithm from every node, keep the best" recipe,
and :func:`~repro.placement.hierarchical.hierarchical_best_placement`
scales it to multi-thousand-node topologies (cluster medoids first, then
refine the best clusters; exact below 200 sites).
"""

from repro.placement.filtering import lin_vitter_filter
from repro.placement.fractional import (
    FractionalFamily,
    FractionalPlacement,
    FractionalProgram,
)
from repro.placement.gap import round_fractional_placement
from repro.placement.hierarchical import (
    ClusterModel,
    HierarchicalSearchResult,
    cluster_sites,
    hierarchical_best_placement,
)
from repro.placement.many_to_one import (
    best_many_to_one_placement,
    many_to_one_placement,
)
from repro.placement.one_to_one import (
    grid_onion_placement,
    majority_ball_placement,
    one_to_one_placement,
)
from repro.placement.search import PlacementSearchResult, best_placement
from repro.placement.singleton import singleton_placement

__all__ = [
    "majority_ball_placement",
    "grid_onion_placement",
    "one_to_one_placement",
    "singleton_placement",
    "FractionalFamily",
    "FractionalPlacement",
    "FractionalProgram",
    "lin_vitter_filter",
    "round_fractional_placement",
    "many_to_one_placement",
    "best_many_to_one_placement",
    "best_placement",
    "PlacementSearchResult",
    "ClusterModel",
    "HierarchicalSearchResult",
    "cluster_sites",
    "hierarchical_best_placement",
]
