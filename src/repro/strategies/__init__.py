"""Client access strategies and the optimizers that tune them.

* :func:`~repro.strategies.simple.closest_strategy` /
  :func:`~repro.strategies.simple.balanced_strategy` — the two baseline
  strategies of Sections 6-7, in the right representation for the system;
* :func:`~repro.strategies.lp_optimizer.optimize_access_strategies` — the
  paper's LP (4.3)-(4.6): minimize average network delay subject to node
  capacity constraints;
* :mod:`~repro.strategies.capacity_sweep` — the uniform-capacity sweep
  ``c_i = L_opt + i (1 - L_opt)/10`` (Section 7);
* :mod:`~repro.strategies.nonuniform` — capacities inversely proportional
  to a node's average distance to clients (Section 7).
"""

from repro.strategies.capacity_sweep import (
    CapacitySweepPoint,
    CapacitySweepResult,
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.strategies.lp_optimizer import optimize_access_strategies
from repro.strategies.nonuniform import (
    nonuniform_capacities,
    sweep_nonuniform_capacities,
)
from repro.strategies.simple import balanced_strategy, closest_strategy

__all__ = [
    "closest_strategy",
    "balanced_strategy",
    "optimize_access_strategies",
    "capacity_levels",
    "sweep_uniform_capacities",
    "CapacitySweepPoint",
    "CapacitySweepResult",
    "nonuniform_capacities",
    "sweep_nonuniform_capacities",
]
