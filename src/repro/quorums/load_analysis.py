"""Quorum-system load theory.

The *load* of a quorum system under an access strategy ``p`` is the largest
probability any element is accessed, ``max_u sum_{Q ni u} p(Q)``; the
*optimal load* ``L_opt`` minimizes this over strategies [Naor & Wool]. The
paper's capacity-sweep technique (Section 7) sweeps node capacities over
``[L_opt, 1]``, so computing ``L_opt`` exactly matters.

Closed forms are used where available (threshold: ``q/n``; Grid:
``(2k-1)/k^2``; singleton: 1) and an LP is solved for arbitrary enumerable
systems:

``min z  s.t.  sum_{Q ni u} p(Q) <= z  (for all u),  sum_Q p(Q) = 1, p >= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuorumSystemError
from repro.lp import BatchedProgram, LinearProgram
from repro.quorums.base import QuorumSystem
from repro.quorums.grid import RectangularGridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = ["optimal_load", "LoadAnalysis"]


@dataclass(frozen=True)
class LoadAnalysis:
    """Result of a load computation.

    ``l_opt`` is the optimal load; ``strategy`` is a load-optimal global
    access strategy over the system's quorums (None when the system is not
    enumerable but a closed form applies).
    """

    l_opt: float
    strategy: np.ndarray | None


def _lp_optimal_load(system: QuorumSystem) -> LoadAnalysis:
    if not system.is_enumerable:
        raise QuorumSystemError(
            f"{system.name}: no closed-form load and not enumerable"
        )
    lp = LinearProgram()
    p = lp.add_block("p", system.num_quorums, lower=0.0, upper=1.0)
    z = lp.add_block("z", 1, lower=0.0)
    lp.set_objective(z.index(0), 1.0)
    membership: dict[int, list[int]] = {u: [] for u in system.elements()}
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            membership[u].append(i)
    for u, quorum_ids in membership.items():
        if not quorum_ids:
            continue  # element in no quorum carries no load
        cols = [p.index(i) for i in quorum_ids] + [z.index(0)]
        vals = [1.0] * len(quorum_ids) + [-1.0]
        lp.add_le(cols, vals, 0.0)
    lp.add_eq([p.index(i) for i in range(system.num_quorums)],
              [1.0] * system.num_quorums, 1.0)
    solution = BatchedProgram(lp).solve()
    return LoadAnalysis(
        l_opt=float(solution.objective),
        strategy=solution.block_values(lp, "p"),
    )


def optimal_load(system: QuorumSystem) -> LoadAnalysis:
    """Optimal load ``L_opt`` of a quorum system.

    Closed forms where they exist (singleton, thresholds, grids), else the
    LP :func:`_lp_optimal_load`, which tests also call directly to
    cross-validate the closed forms.
    """
    if isinstance(system, SingletonQuorumSystem):
        return LoadAnalysis(l_opt=1.0, strategy=np.array([1.0]))
    if isinstance(system, ThresholdQuorumSystem):
        # Uniform strategy loads every element q/n; no strategy does
        # better since the expected quorum size is at least q.
        return LoadAnalysis(
            l_opt=system.quorum_size / system.universe_size,
            strategy=None,
        )
    if isinstance(system, RectangularGridQuorumSystem):
        m = system.num_quorums
        uniform = np.full(m, 1.0 / m)
        return LoadAnalysis(l_opt=system.uniform_load, strategy=uniform)
    return _lp_optimal_load(system)
