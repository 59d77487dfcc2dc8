"""The access-strategy LP — equations (4.3)-(4.6).

Given a placement ``f`` and node capacities, find per-client strategies
minimizing average network delay subject to the capacity constraints:

``min   avg_v sum_i p[v,i] * delta_f(v, Q_i)``                      (4.3)
``s.t.  avg_v load_{v,f}(w) <= cap(w)   for all nodes w``           (4.4)
``      sum_i p[v,i] = 1                for all clients v``         (4.5)
``      p[v,i] in [0, 1]``                                          (4.6)

The LP minimizes *network delay* while bounding per-node load, so it
"improves network delay while preserving per-server load" — the tool both
the capacity-sweep technique and the iterative algorithm build on. A
solution may not exist when capacities are set below the system's optimal
load; that surfaces as :class:`~repro.errors.InfeasibleError`.

Only the capacity column (the RHS of (4.4)) depends on the capacities:
objective and constraint matrices are fixed per placement. That makes the
LP a build-once/solve-many family: :class:`StrategyProgram` assembles the
constraint system exactly once (fully vectorized — one numpy broadcast per
constraint group instead of tens of thousands of per-row appends) and then
solves any number of capacity vectors against the shared structure through
:class:`~repro.lp.batched.BatchedProgram`, which warm-starts HiGHS across
variants when its bindings are importable. The fractional-placement LP
(:mod:`repro.placement.fractional`) follows the same pattern with one
extra degree of freedom: its element-load *coefficients* drift too, which
the backend covers with in-place row updates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.strategy import ExplicitStrategy
from repro.errors import StrategyError
from repro.lp import BatchedProgram, LinearProgram
from repro.obs import tracer as obs

__all__ = [
    "StrategyProgram",
    "optimize_access_strategies",
]


class StrategyProgram:
    """LP (4.3)-(4.6) assembled once for a placement; capacities are RHS.

    Usage::

        program = StrategyProgram(placed)
        strategy = program.solve(0.8)                  # one capacity level
        strategies = program.solve_many([0.7, 0.8, 1])  # a whole sweep

    Solving many levels reuses the assembled matrices (and, with HiGHS
    bindings importable, re-optimizes from the previous basis) — one
    assembly amortized over the family instead of one rebuild per level.

    Parameters
    ----------
    placed:
        A placed, enumerable quorum system.
    delay_matrix:
        Objective delays ``delta[v, i]``; defaults to the placement's own
        :attr:`~repro.core.placement.PlacedQuorumSystem.delay_matrix`.
        The dynamics subsystem passes drifted matrices here (and rewrites
        them later through :meth:`update_delays`) — the constraint system
        is RTT-free, so only the objective moves.
    """

    def __init__(
        self,
        placed: PlacedQuorumSystem,
        delay_matrix: np.ndarray | None = None,
    ) -> None:
        if not placed.system.is_enumerable:
            raise StrategyError(
                f"{placed.system.name} is not enumerable; the strategy LP "
                "needs explicit quorums"
            )
        self.placed = placed
        n_clients = placed.n_nodes
        m = placed.num_quorums

        if delay_matrix is None:
            delta = placed.delay_matrix  # (clients, quorums)
        else:
            delta = self._check_delay_matrix(placed, delay_matrix)
        a = placed.incidence_counts

        lp = LinearProgram()
        p = lp.add_block("p", (n_clients, m), lower=0.0, upper=1.0)

        # Objective (4.3): (1/|V|) sum_v sum_i delta[v, i] p[v, i].
        coefficients = (delta / n_clients).ravel()
        nonzero = np.flatnonzero(coefficients)
        lp.set_objective_many(p.offset + nonzero, coefficients[nonzero])

        # Capacity constraints (4.4), one row per node with any placed
        # element. Entry (v, i) of row w carries a[i, w] / |V|; the same
        # per-quorum weights repeat for every client, so every row is a
        # column slice of one (clients, nonzeros of a) broadcast. Emitted
        # row by row, the columns ascend within each row, and the CSR
        # build (repro.lp.problem) skips its sort.
        node_ids, quorum_ids = np.nonzero(a.T)
        support, first, counts = np.unique(
            node_ids, return_index=True, return_counts=True
        )
        weights = a[quorum_ids, node_ids] / n_clients
        clients = np.arange(n_clients)
        cols = p.offset + clients[:, None] * m + quorum_ids[None, :]
        vals = np.broadcast_to(weights, cols.shape)
        rows = [slice(lo, lo + k) for lo, k in zip(first, counts)]
        lp.add_le_many(
            np.repeat(np.arange(support.size), n_clients * counts),
            np.concatenate([cols[:, row] for row in rows], axis=None),
            np.concatenate([vals[:, row] for row in rows], axis=None),
            np.full(support.size, np.inf),
        )

        # Distribution constraints (4.5)-(4.6): one simplex per client.
        lp.add_eq_many(
            np.repeat(clients, m),
            p.offset + np.arange(n_clients * m),
            np.ones(n_clients * m),
            np.ones(n_clients),
        )

        self._p_block = p
        #: Nodes hosting at least one element, in row order of (4.4).
        self.support_nodes = support
        # Only the batched program's built arrays survive construction;
        # the builder (and its COO chunks) is released here.
        self._batched = BatchedProgram(lp)
        obs.count("strategy.assemble")

    @property
    def backend(self) -> str:
        """Which solver path variants run through (``highspy``,
        ``scipy-highspy``, or ``scipy``); ``REPRO_LP_BACKEND=scipy``
        forces the last."""
        return self._batched.backend

    @property
    def lp_solves(self) -> int:
        """Solver invocations so far (anchor calibrations included)."""
        return self._batched.solve_count

    @staticmethod
    def _check_delay_matrix(
        placed: PlacedQuorumSystem, delay_matrix: np.ndarray
    ) -> np.ndarray:
        delta = np.asarray(delay_matrix, dtype=np.float64)
        expected = (placed.n_nodes, placed.num_quorums)
        if delta.shape != expected:
            raise StrategyError(
                f"delay matrix must have shape {expected}, got {delta.shape}"
            )
        return delta

    def update_delays(self, delay_matrix: np.ndarray) -> None:
        """Re-point the objective at a drifted delay matrix, in place.

        The capacity and simplex constraints of (4.4)-(4.6) do not involve
        round-trip times, so an RTT change is *purely* an objective rewrite
        over the assembled structure: every ``p[v, i]`` coefficient becomes
        ``delta[v, i] / |V|`` (zeros included — the built objective vector
        is dense). The persistent HiGHS model, when active, is updated in
        the same call, and the next solve re-optimizes from the program's
        anchor basis instead of assembling and solving cold. This is the
        incremental hook the dynamics subsystem drives on RTT-drift events.
        """
        delta = self._check_delay_matrix(self.placed, delay_matrix)
        coefficients = (delta / self.placed.n_nodes).ravel()
        self._batched.update_objective(
            self._p_block.offset + np.arange(coefficients.size, dtype=np.intp),
            coefficients,
        )

    def normalize_capacities(
        self, capacities: np.ndarray | float
    ) -> np.ndarray:
        """Validate and broadcast capacities to one value per node."""
        placed = self.placed
        caps = np.asarray(capacities, dtype=np.float64)
        if caps.ndim == 0:
            caps = np.full(placed.n_nodes, float(caps))
        if caps.shape != (placed.n_nodes,):
            raise StrategyError(
                f"capacities must be scalar or shape ({placed.n_nodes},), "
                f"got {caps.shape}"
            )
        if np.any(caps < 0):
            raise StrategyError("capacities must be non-negative")
        return caps

    def _strategy_from(self, solution) -> ExplicitStrategy:
        matrix = self._p_block.reshape(solution.x)
        return ExplicitStrategy(matrix)

    def solve(
        self, capacities: np.ndarray | float
    ) -> ExplicitStrategy:
        """Solve for one capacity vector.

        Raises
        ------
        InfeasibleError
            If no strategy profile satisfies the capacity constraints.
        """
        caps = self.normalize_capacities(capacities)
        solution = self._batched.solve(caps[self.support_nodes])
        return self._strategy_from(solution)

    def solve_many(
        self,
        capacity_variants: Iterable[np.ndarray | float],
    ) -> list[ExplicitStrategy | None]:
        """Solve a family of capacity vectors against the shared structure.

        Returns one entry per variant: the optimal strategy profile, or
        ``None`` where that variant is infeasible (capacities below what
        any profile can meet) — callers record those as dropped levels
        rather than silently skipping them.

        Variants are swept in ascending RHS order — the basis-aware
        schedule, each warm step a small perturbation — and un-permuted,
        so results line up with the input and do not depend on the
        caller's level order.
        """
        rhs = [
            self.normalize_capacities(caps)[self.support_nodes]
            for caps in capacity_variants
        ]
        solutions = self._batched.solve_many(rhs)
        return [
            None if sol is None else self._strategy_from(sol)
            for sol in solutions
        ]


def optimize_access_strategies(
    placed: PlacedQuorumSystem,
    capacities: np.ndarray | float,
) -> ExplicitStrategy:
    """Solve LP (4.3)-(4.6) once and return the optimal strategy profile.

    One-shot convenience over :class:`StrategyProgram`; when solving the
    same placement for several capacity vectors, build the program once
    and use :meth:`StrategyProgram.solve_many` instead.

    Parameters
    ----------
    placed:
        A placed, enumerable quorum system.
    capacities:
        Either a scalar (uniform capacity ``c_i`` for every node) or a
        per-node vector ``cap(w)``.

    Raises
    ------
    InfeasibleError
        If no strategy profile satisfies the capacity constraints (e.g.
        capacities below the optimal load of the placed system).
    """
    return StrategyProgram(placed).solve(capacities)
