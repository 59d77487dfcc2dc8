"""Non-uniform node capacities (Section 7, "Non-uniform node capacities").

With uniform capacities the LP saturates some nodes regardless of how far
they sit from the clients. The paper's heuristic instead sets capacities
*inversely proportional* to a node's average distance to the clients, within
a range ``[beta, gamma]``: with ``s_i`` the average client distance of
support node ``v_i``, ``le = min_i 1/s_i`` and ``re = max_i 1/s_i``,

``cap(v_i) = ((1/s_i - le) / (re - le)) * (gamma - beta) + beta``

so the farthest node receives ``beta`` and the closest ``gamma``. Close
nodes may then absorb more load (they are cheap to reach) while distant
nodes stay lightly loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import ResponseTimeResult, evaluate
from repro.core.strategy import ExplicitStrategy
from repro.errors import InfeasibleError, StrategyError
from repro.quorums.load_analysis import optimal_load
from repro.strategies.capacity_sweep import capacity_levels
from repro.strategies.lp_optimizer import StrategyProgram

__all__ = [
    "nonuniform_capacities",
    "NonuniformSweepPoint",
    "NonuniformSweepResult",
    "sweep_nonuniform_capacities",
]


def nonuniform_capacities(
    placed: PlacedQuorumSystem,
    beta: float,
    gamma: float,
) -> np.ndarray:
    """Per-node capacities inversely proportional to average client distance.

    Only support nodes receive the formula; nodes hosting no element carry
    no load, so their capacity is left at 1. Requires a one-to-one
    placement, as in the paper.
    """
    if not 0.0 <= beta <= gamma <= 1.0:
        raise StrategyError(
            f"require 0 <= beta <= gamma <= 1, got [{beta}, {gamma}]"
        )
    if not placed.placement.is_one_to_one:
        raise StrategyError(
            "non-uniform capacity heuristic assumes a one-to-one placement"
        )
    support = placed.placement.support_set
    mean_dist = placed.topology.mean_distances()[support]
    if np.any(mean_dist <= 0):
        raise StrategyError(
            "average client distance must be positive for every support node"
        )
    inverse = 1.0 / mean_dist
    le, re = float(inverse.min()), float(inverse.max())
    caps = np.ones(placed.n_nodes)
    if np.isclose(re, le):
        caps[support] = gamma  # all nodes equidistant: degenerate range
    else:
        caps[support] = (inverse - le) / (re - le) * (gamma - beta) + beta
    return caps


@dataclass(frozen=True)
class NonuniformSweepPoint:
    """One sweep point of the non-uniform heuristic: the interval upper end
    ``gamma = c_i``, the capacity vector, and the evaluation."""

    gamma: float
    capacities: np.ndarray
    strategy: ExplicitStrategy
    result: ResponseTimeResult


@dataclass(frozen=True)
class NonuniformSweepResult:
    """All feasible non-uniform sweep points, the best one, and the
    interval upper ends ``gamma`` whose LP was infeasible (dropped)."""

    points: list[NonuniformSweepPoint]
    best: NonuniformSweepPoint
    infeasible_gammas: tuple[float, ...] = ()

    @property
    def gammas(self) -> np.ndarray:
        return np.asarray([pt.gamma for pt in self.points])

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


def sweep_nonuniform_capacities(
    placed: PlacedQuorumSystem,
    alpha: float,
    levels: np.ndarray | None = None,
) -> NonuniformSweepResult:
    """Sweep intervals ``[beta, gamma] = [L_opt, c_i]`` (paper's comparison).

    For each ``c_i`` from :func:`capacity_levels`, capacities are spread
    inverse-proportionally over ``[L_opt, c_i]`` and LP (4.3)-(4.6) is
    solved; the response-time-minimizing point wins. The LP structure is
    assembled once per call and every interval solves as an RHS variant
    against it, swept in ascending capacity order with results
    un-permuted; infeasible intervals are recorded, not silently dropped.
    """
    l_opt = optimal_load(placed.system).l_opt
    if levels is None:
        levels = capacity_levels(l_opt)
    levels = np.asarray(levels, dtype=np.float64)
    capacity_vectors = [
        nonuniform_capacities(placed, beta=l_opt, gamma=float(gamma))
        for gamma in levels
    ]
    strategies = StrategyProgram(placed).solve_many(capacity_vectors)

    points: list[NonuniformSweepPoint] = []
    infeasible: list[float] = []
    for gamma, caps, strategy in zip(levels, capacity_vectors, strategies):
        if strategy is None:
            infeasible.append(float(gamma))
            continue
        result = evaluate(placed, strategy, alpha=alpha)
        points.append(
            NonuniformSweepPoint(
                gamma=float(gamma),
                capacities=caps,
                strategy=strategy,
                result=result,
            )
        )
    if not points:
        raise InfeasibleError(
            "no non-uniform capacity interval admitted a feasible profile"
        )
    best = min(points, key=lambda pt: pt.result.avg_response_time)
    return NonuniformSweepResult(
        points=points, best=best, infeasible_gammas=tuple(infeasible)
    )
