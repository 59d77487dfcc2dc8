"""The uniform-capacity sweep (Section 7, "Optimizing the access strategy").

Node capacity is not treated as a physical property but as a *tuning knob*:
for ten values ``c_i = L_opt + i * (1 - L_opt)/10`` every node's capacity is
set to ``c_i``, LP (4.3)-(4.6) is solved, and the response time of the
resulting strategies is computed; the best ``c_i`` wins. Low capacities
force load dispersion (good under high demand); high capacities allow close
quorums (good under low demand).

The ten LPs of a sweep share every coefficient except the capacity RHS, so
the sweep assembles the constraint system once per placement
(:class:`~repro.strategies.lp_optimizer.StrategyProgram`) and batch-solves
all levels against the shared structure — in ascending capacity order,
so each warm re-solve is a small monotone perturbation of the previous
basis, with results un-permuted back to the caller's level order. Levels
whose LP is infeasible (capacity below the placed system's optimal load)
are no longer silently skipped: they are recorded in
:attr:`CapacitySweepResult.infeasible_capacities` so figures and logs can
show what was dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import ResponseTimeResult, evaluate
from repro.core.strategy import ExplicitStrategy
from repro.errors import InfeasibleError, StrategyError
from repro.quorums.load_analysis import optimal_load
from repro.strategies.lp_optimizer import StrategyProgram

__all__ = [
    "capacity_levels",
    "CapacitySweepPoint",
    "CapacitySweepResult",
    "sweep_uniform_capacities",
]


def capacity_levels(l_opt: float, steps: int = 10) -> np.ndarray:
    """The paper's grid ``c_i = L_opt + i * lambda``, ``lambda = (1-L_opt)/steps``.

    ``i`` runs from 1 to ``steps``, so the last level is exactly 1.
    """
    if not 0.0 < l_opt <= 1.0:
        raise StrategyError(f"optimal load must be in (0, 1], got {l_opt}")
    if steps < 1:
        raise StrategyError("steps must be >= 1")
    lam = (1.0 - l_opt) / steps
    return l_opt + lam * np.arange(1, steps + 1)


@dataclass(frozen=True)
class CapacitySweepPoint:
    """One sweep point: the capacity level and the evaluation under the
    LP-optimal strategies for that level."""

    capacity: float
    strategy: ExplicitStrategy
    result: ResponseTimeResult


@dataclass(frozen=True)
class CapacitySweepResult:
    """All feasible sweep points, the response-time-minimizing one, and
    the capacity levels whose LP was infeasible (dropped from the sweep)."""

    points: list[CapacitySweepPoint]
    best: CapacitySweepPoint
    infeasible_capacities: tuple[float, ...] = ()

    @property
    def capacities(self) -> np.ndarray:
        return np.asarray([pt.capacity for pt in self.points])

    @property
    def response_times(self) -> np.ndarray:
        return np.asarray(
            [pt.result.avg_response_time for pt in self.points]
        )

    @property
    def network_delays(self) -> np.ndarray:
        return np.asarray(
            [pt.result.avg_network_delay for pt in self.points]
        )


def sweep_uniform_capacities(
    placed: PlacedQuorumSystem,
    alpha: float,
    levels: np.ndarray | None = None,
) -> CapacitySweepResult:
    """Sweep uniform node capacities and pick the best response time.

    The LP structure is assembled once and every level solves as an RHS
    variant against it (build-once/solve-many).

    Parameters
    ----------
    placed:
        The placed (enumerable) quorum system.
    alpha:
        Queueing coefficient (``op_srv_time * client_demand``).
    levels:
        Capacity levels to try; defaults to :func:`capacity_levels` at the
        system's optimal load.
    """
    if levels is None:
        l_opt = optimal_load(placed.system).l_opt
        levels = capacity_levels(l_opt)
    levels = np.asarray(levels, dtype=np.float64)
    strategies = StrategyProgram(placed).solve_many(
        [float(c) for c in levels]
    )

    points: list[CapacitySweepPoint] = []
    infeasible: list[float] = []
    for capacity, strategy in zip(levels, strategies):
        if strategy is None:
            # capacity below what any strategy profile can meet
            infeasible.append(float(capacity))
            continue
        result = evaluate(placed, strategy, alpha=alpha)
        points.append(
            CapacitySweepPoint(
                capacity=float(capacity), strategy=strategy, result=result
            )
        )
    if not points:
        raise InfeasibleError(
            "no capacity level admitted a feasible strategy profile"
        )
    best = min(points, key=lambda pt: pt.result.avg_response_time)
    return CapacitySweepResult(
        points=points,
        best=best,
        infeasible_capacities=tuple(infeasible),
    )
