"""The iterative placement/strategy algorithm (Section 4.2).

Iteration ``j`` has two phases:

1. Run the many-to-one placement algorithm with the *original* capacities
   ``cap0`` and the global strategy ``avg({p_v^{j-1}})``, producing
   placement ``f_j`` (loads may exceed ``cap0`` by the rounding's constant
   factor).
2. Run the access-strategy LP with ``cap(v) = load_{f_j}(v)``, producing new
   strategies ``{p_v^j}`` — network delay can only improve while node loads
   are preserved.

After each iteration the expected response time (4.2) is computed; if it
failed to decrease, the algorithm halts and returns the *previous*
iteration's placement and strategies. The per-phase network delays are
recorded because Figure 8.9 plots them.

Both LP families the loop solves are batched. Each call builds one
:class:`~repro.placement.fractional.FractionalFamily` and threads it
through every iteration's placement phase: each candidate client's
fractional LP is assembled once and later iterations only rewrite its
element-load rows and re-solve — warm-started when HiGHS bindings
import. Each iteration's strategy LP is one fresh
:class:`~repro.strategies.lp_optimizer.StrategyProgram` solved once.
No program outlives the call, so the result is a function of the
arguments alone, in whichever process the call runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy
from repro.errors import InfeasibleError
from repro.network.graph import Topology
from repro.placement.fractional import FractionalFamily
from repro.placement.many_to_one import best_many_to_one_placement
from repro.quorums.base import QuorumSystem
from repro.strategies.lp_optimizer import StrategyProgram

__all__ = ["IterationRecord", "IterativeResult", "iterative_optimize"]


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one iteration of the algorithm.

    ``phase1_network_delay`` is the average network delay right after the
    placement phase (still under the previous strategies);
    ``phase2_network_delay`` and ``response_time`` are measured after the
    strategy LP.
    """

    iteration: int
    placed: PlacedQuorumSystem
    strategy: ExplicitStrategy
    phase1_network_delay: float
    phase2_network_delay: float
    response_time: float


@dataclass(frozen=True)
class IterativeResult:
    """Final placement/strategies plus the full iteration history."""

    placed: PlacedQuorumSystem
    strategy: ExplicitStrategy
    response_time: float
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def iterations_run(self) -> int:
        return len(self.history)


def iterative_optimize(
    topology: Topology,
    system: QuorumSystem,
    capacities: np.ndarray | float,
    alpha: float,
    max_iterations: int = 10,
    candidates: object = None,
) -> IterativeResult:
    """Run the iterative algorithm until response time stops improving.

    Parameters
    ----------
    topology, system:
        The network and (enumerable) quorum system.
    capacities:
        The original capacities ``cap0`` (scalar for uniform).
    alpha:
        Queueing coefficient for the response-time objective.
    max_iterations:
        Safety bound; the paper observes most runs stop after one iteration.
    """
    family = FractionalFamily(topology, system)
    cap0 = np.asarray(capacities, dtype=np.float64)
    if cap0.ndim == 0:
        cap0 = np.full(topology.n_nodes, float(cap0))

    previous: IterationRecord | None = None
    prev_strategy_matrix = np.full(
        (topology.n_nodes, system.num_quorums), 1.0 / system.num_quorums
    )
    history: list[IterationRecord] = []

    for j in range(1, max_iterations + 1):
        global_strategy = prev_strategy_matrix.mean(axis=0)
        search = best_many_to_one_placement(
            topology,
            system,
            capacities=cap0,
            strategy=global_strategy,
            candidates=candidates,
            family=family,
        )
        placed_j = search.placed

        carried = ExplicitStrategy(prev_strategy_matrix)
        phase1 = evaluate(placed_j, carried, alpha=0.0)
        loads_j = carried.node_loads(placed_j)

        try:
            strategy_j = StrategyProgram(placed_j).solve(loads_j)
        except InfeasibleError:
            # The carried strategies themselves satisfy cap = their loads,
            # so infeasibility can only be numerical; keep the carried ones.
            strategy_j = carried
        outcome = evaluate(placed_j, strategy_j, alpha=alpha)

        record = IterationRecord(
            iteration=j,
            placed=placed_j,
            strategy=strategy_j,
            phase1_network_delay=phase1.avg_network_delay,
            phase2_network_delay=outcome.avg_network_delay,
            response_time=outcome.avg_response_time,
        )
        history.append(record)

        if previous is not None and record.response_time >= previous.response_time:
            return IterativeResult(
                placed=previous.placed,
                strategy=previous.strategy,
                response_time=previous.response_time,
                history=history,
            )
        previous = record
        prev_strategy_matrix = strategy_j.matrix

    assert previous is not None
    return IterativeResult(
        placed=previous.placed,
        strategy=previous.strategy,
        response_time=previous.response_time,
        history=history,
    )
