"""repro — reproduction of Oprea & Reiter, "Minimizing Response Time for
Quorum-System Protocols over Wide-Area Networks" (DSN 2007).

The library places quorum systems on wide-area topologies and tunes client
access strategies to minimize average response time. The public API surfaces
the paper's building blocks:

>>> from repro import planetlab_50, GridQuorumSystem, best_placement
>>> from repro import closest_strategy, evaluate
>>> topo = planetlab_50()
>>> placed = best_placement(topo, GridQuorumSystem(3)).placed
>>> evaluate(placed, closest_strategy(placed)).avg_network_delay  # doctest: +SKIP
71.3

See README.md for the command-line interface and the figure registry, and
docs/architecture.md for the layer-by-layer design.
"""

from repro.core import (
    DEFAULT_OP_SRV_TIME_MS,
    ExplicitStrategy,
    PlacedQuorumSystem,
    Placement,
    ResponseTimeResult,
    ThresholdBalancedStrategy,
    ThresholdClosestStrategy,
    alpha_from_demand,
    evaluate,
)
from repro.core.iterative import IterativeResult, iterative_optimize
from repro.network import (
    Topology,
    daxlist_161,
    generate_cluster_topology,
    load_topology,
    planetlab_50,
)
from repro.placement import (
    best_many_to_one_placement,
    best_placement,
    grid_onion_placement,
    majority_ball_placement,
    many_to_one_placement,
    singleton_placement,
)
from repro.quorums import (
    GridQuorumSystem,
    MajorityKind,
    SingletonQuorumSystem,
    ThresholdQuorumSystem,
    majority,
    optimal_load,
)
from repro.strategies import (
    balanced_strategy,
    capacity_levels,
    closest_strategy,
    nonuniform_capacities,
    optimize_access_strategies,
    sweep_nonuniform_capacities,
    sweep_uniform_capacities,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # network
    "Topology",
    "planetlab_50",
    "daxlist_161",
    "load_topology",
    "generate_cluster_topology",
    # quorum systems
    "GridQuorumSystem",
    "ThresholdQuorumSystem",
    "SingletonQuorumSystem",
    "MajorityKind",
    "majority",
    "optimal_load",
    # core model
    "Placement",
    "PlacedQuorumSystem",
    "ExplicitStrategy",
    "ThresholdClosestStrategy",
    "ThresholdBalancedStrategy",
    "ResponseTimeResult",
    "evaluate",
    "alpha_from_demand",
    "DEFAULT_OP_SRV_TIME_MS",
    # placements
    "best_placement",
    "majority_ball_placement",
    "grid_onion_placement",
    "singleton_placement",
    "many_to_one_placement",
    "best_many_to_one_placement",
    # strategies
    "closest_strategy",
    "balanced_strategy",
    "optimize_access_strategies",
    "capacity_levels",
    "sweep_uniform_capacities",
    "sweep_nonuniform_capacities",
    "nonuniform_capacities",
    # iterative
    "iterative_optimize",
    "IterativeResult",
]
