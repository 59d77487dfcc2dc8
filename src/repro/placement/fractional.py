"""Fractional many-to-one placement LP (Section 4.1.2, first stage).

Variables ``x[u, w]`` give the fraction of element ``u`` placed on node
``w``; auxiliary variables ``z[i]`` upper-bound the (fractional) delay of
quorum ``Q_i`` from the designated client ``v0``:

``min  sum_i p(Q_i) * z_i``

``s.t. sum_w d(v0, w) x[u, w] <= z_i      for all i, u in Q_i``
``     sum_w x[u, w] = 1                  for all u``
``     sum_u load_p(u) x[u, w] <= cap(w)  for all w``
``     x >= 0``

For an integral ``x`` the objective equals the true quorum delay
``max_{u in Q_i} d(v0, f(u))``, so this is a valid relaxation of the
single-client placement problem; ``load_p(u)`` is the element load induced
by the global strategy ``p``.

Batched entry points
--------------------
The LP is solved in families, not singly: the best-``v0`` search solves it
from every candidate client, and the Section 4.2 iterative algorithm
re-solves the whole family every iteration with an evolved strategy. Most
of the constraint system never changes across such a family — per
``(topology, system)`` the sparsity structure is fixed, per candidate
``v0`` the delay-row coefficients are fixed, and as the strategy evolves
only the element-load rows (coefficients ``load_p(u)``) and the capacity
right-hand side move. The batched entry points exploit exactly that split:

* :class:`FractionalFamily` — computes the COO index structure once per
  ``(topology, system)`` and hands out per-``v0`` programs that share it.
* :class:`FractionalProgram` — one assembled LP per designated client,
  built through the vectorized
  :meth:`~repro.lp.problem.LinearProgram.add_le_many` /
  :meth:`~repro.lp.problem.LinearProgram.add_eq_many` path and kept inside
  a :class:`~repro.lp.batched.BatchedProgram`. Re-solving with a new
  strategy rewrites the element-load rows and objective in place
  (:meth:`~repro.lp.batched.BatchedProgram.update_le_rows`), so HiGHS
  re-optimizes from the program's anchor basis instead of solving cold;
  a program's answers are a deterministic function of the requests it
  has received, in order (see :mod:`repro.lp.batched`).
  :meth:`FractionalProgram.solve_many` sweeps capacity vectors as pure
  RHS variants in ascending order (un-permuted), returning ``None`` for
  infeasible ones.

A program is built from ``(topology, system, v0)`` alone, with the
topology's capacities and the uniform strategy, and calibrates on that
built program; every request (capacities, strategy) goes through
:meth:`FractionalProgram.solve` or :meth:`FractionalProgram.solve_many`.
So a request answers the same whether it is the program's first or the
search's, which builds its programs the same way.

This is the only implementation in the library. The row-by-row assembly
and cold solve it replaced live on as a test-side reference in
``tests/test_fractional_batched.py``, which pins this path
matrix-identical and objective-equivalent to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlacementError
from repro.lp import BatchedProgram, LinearProgram
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.quorums.base import QuorumSystem

__all__ = [
    "FractionalFamily",
    "FractionalPlacement",
    "FractionalProgram",
    "element_loads_of_strategy",
]


def element_loads_of_strategy(
    system: QuorumSystem, strategy: np.ndarray
) -> np.ndarray:
    """``load_p(u) = sum_{Q_i ni u} p_i`` for every element."""
    p = np.asarray(strategy, dtype=np.float64)
    if p.shape != (system.num_quorums,):
        raise PlacementError(
            f"strategy must cover {system.num_quorums} quorums"
        )
    return system.element_loads(p)


@dataclass(frozen=True)
class FractionalPlacement:
    """Solution of the fractional placement LP.

    ``x[u, w]`` is the fractional assignment; ``quorum_delays[i]`` the LP's
    delay bound per quorum; ``objective`` the expected fractional delay for
    the designated client.
    """

    v0: int
    x: np.ndarray
    quorum_delays: np.ndarray
    objective: float
    element_loads: np.ndarray


def _validate_inputs(
    topology: Topology, system: QuorumSystem, v0: int | None = None
) -> None:
    if not system.is_enumerable:
        raise PlacementError(
            f"{system.name} is not enumerable; the placement LP needs "
            "explicit quorums"
        )
    if v0 is not None and not 0 <= v0 < topology.n_nodes:
        raise PlacementError(f"v0={v0} outside topology")


def _normalize_capacities(
    topology: Topology, capacities: object
) -> np.ndarray:
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.shape != (topology.n_nodes,):
        raise PlacementError(
            f"capacities must have shape ({topology.n_nodes},), "
            f"got {caps.shape}"
        )
    return caps


@dataclass(frozen=True)
class _Structure:
    """COO index arrays of the LP, shared by every ``v0``'s program.

    Everything here depends only on ``(topology.n_nodes, system)``: row and
    column indices of the delay rows (one per ``(Q_i, u in Q_i)`` pair),
    the per-element assignment equalities, and the per-node capacity rows.
    Coefficient *values* are filled in per program: distances per ``v0``,
    element loads per strategy.
    """

    n: int
    n_nodes: int
    m: int
    n_pairs: int
    elem_ids: np.ndarray
    quorum_ids: np.ndarray
    delay_rows: np.ndarray
    delay_cols: np.ndarray
    eq_rows: np.ndarray
    eq_cols: np.ndarray
    cap_rows: np.ndarray
    cap_cols: np.ndarray


def _build_structure(topology: Topology, system: QuorumSystem) -> _Structure:
    n = system.universe_size
    n_nodes = topology.n_nodes
    m = system.num_quorums
    # Preserve each quorum's iteration order so the delay rows come out in
    # exactly the order the row-by-row reference (tests/) emits them.
    quorums = [
        np.fromiter(q, dtype=np.intp, count=len(q)) for q in system.quorums
    ]
    elem_ids = (
        np.concatenate(quorums) if quorums else np.empty(0, dtype=np.intp)
    )
    quorum_ids = np.repeat(
        np.arange(m, dtype=np.intp), [q.size for q in quorums]
    )
    n_pairs = elem_ids.size
    nodes = np.arange(n_nodes, dtype=np.intp)

    # Delay rows: x[u, :] entries followed by the z_i entry of each row
    # (COO order is irrelevant — CSR assembly canonicalizes it).
    x_cols = (elem_ids[:, None] * n_nodes + nodes[None, :]).ravel()
    delay_rows = np.concatenate(
        [
            np.repeat(np.arange(n_pairs, dtype=np.intp), n_nodes),
            np.arange(n_pairs, dtype=np.intp),
        ]
    )
    delay_cols = np.concatenate([x_cols, n * n_nodes + quorum_ids])

    return _Structure(
        n=n,
        n_nodes=n_nodes,
        m=m,
        n_pairs=n_pairs,
        elem_ids=elem_ids,
        quorum_ids=quorum_ids,
        delay_rows=delay_rows,
        delay_cols=delay_cols,
        eq_rows=np.repeat(np.arange(n, dtype=np.intp), n_nodes),
        eq_cols=np.arange(n * n_nodes, dtype=np.intp),
        cap_rows=np.repeat(nodes, n),
        cap_cols=(
            np.arange(n, dtype=np.intp)[None, :] * n_nodes + nodes[:, None]
        ).ravel(),
    )


class FractionalProgram:
    """The fractional-placement LP of one ``v0``, assembled exactly once.

    The constraint system is built through the vectorized COO batch path
    and handed to a :class:`~repro.lp.batched.BatchedProgram`; re-solving
    with a different strategy rewrites only the objective and the
    element-load rows in place, and different capacity vectors are pure
    RHS variants — both reuse the persistent (warm-started, when HiGHS
    bindings import) solver instead of assembling and solving cold.

    Usage::

        program = FractionalProgram(topology, system, v0)
        frac = program.solve()                        # uniform strategy
        frac = program.solve(strategy=p1)             # iteration 2 —
                                                      # load rows updated
        fracs = program.solve_many([c0, c1])          # RHS sweep

    Parameters
    ----------
    topology, system:
        The network and (enumerable) quorum system.
    v0:
        The designated client whose expected delay is minimized.

    The program is built with the topology's capacities and the uniform
    strategy; both can be overridden per solve.

    The solver backend is auto-probed (``REPRO_LP_BACKEND=scipy`` forces
    the cold per-variant fallback; see :mod:`repro.lp.batched`).
    """

    def __init__(
        self,
        topology: Topology,
        system: QuorumSystem,
        v0: int,
        _structure: _Structure | None = None,
    ) -> None:
        _validate_inputs(topology, system, v0)
        self.topology = topology
        self.system = system
        self.v0 = int(v0)
        s = _structure or _build_structure(topology, system)
        self._s = s
        self._caps0 = topology.capacities
        self._p = np.full(s.m, 1.0 / s.m)
        self._loads = element_loads_of_strategy(system, self._p)
        dist = topology.distances_from(self.v0)

        lp = LinearProgram()
        x = lp.add_block("x", (s.n, s.n_nodes), lower=0.0, upper=1.0)
        z = lp.add_block("z", s.m, lower=0.0)
        self._z_vars = z.offset + np.arange(s.m, dtype=np.intp)
        lp.set_objective_many(self._z_vars, self._p)

        delay_vals = np.concatenate(
            [
                np.broadcast_to(dist, (s.n_pairs, s.n_nodes)).ravel(),
                np.full(s.n_pairs, -1.0),
            ]
        )
        lp.add_le_many(
            s.delay_rows, s.delay_cols, delay_vals, np.zeros(s.n_pairs)
        )
        lp.add_eq_many(
            s.eq_rows, s.eq_cols, np.ones(s.n * s.n_nodes), np.ones(s.n)
        )
        cap_first = lp.add_le_many(
            s.cap_rows,
            s.cap_cols,
            np.broadcast_to(self._loads, (s.n_nodes, s.n)).ravel(),
            self._caps0,
        )
        # Capacity rows sit after the delay rows in the LE block; their
        # stored entries per row are the n element columns in ascending
        # order, i.e. exactly an element-loads vector.
        self._cap_row_ids = cap_first + np.arange(s.n_nodes, dtype=np.intp)
        self._x_block = x
        self._z_block = z
        self._batched = BatchedProgram(lp)
        obs.count("fractional.assemble")

    @property
    def backend(self) -> str:
        """Solver path of the underlying batched program."""
        return self._batched.backend

    def _set_strategy(self, strategy: np.ndarray | None) -> None:
        if strategy is None:  # None means "keep the current strategy"
            return
        # Copy: holding a reference would let callers mutate the array in
        # place and trivially pass the staleness check below.
        p = np.array(strategy, dtype=np.float64)
        if np.array_equal(p, self._p):
            return
        loads = element_loads_of_strategy(self.system, p)
        self._batched.update_objective(self._z_vars, p)
        if not np.array_equal(loads, self._loads):
            s = self._s
            self._batched.update_le_rows(
                self._cap_row_ids,
                np.broadcast_to(loads, (s.n_nodes, s.n)),
            )
        self._p = p
        self._loads = loads

    def _rhs(self, capacities: np.ndarray | None) -> np.ndarray:
        caps = (
            self._caps0
            if capacities is None
            else _normalize_capacities(self.topology, capacities)
        )
        return np.concatenate([np.zeros(self._s.n_pairs), caps])

    def _placement_from(self, solution) -> FractionalPlacement:
        return FractionalPlacement(
            v0=self.v0,
            x=self._x_block.reshape(solution.x),
            quorum_delays=self._z_block.reshape(solution.x),
            objective=solution.objective,
            element_loads=self._loads,
        )

    def solve(
        self,
        capacities: np.ndarray | None = None,
        strategy: np.ndarray | None = None,
    ) -> FractionalPlacement:
        """Solve for one (capacities, strategy) parameterization.

        ``None`` keeps the current value of either parameter (capacities
        fall back to the ones the program was built with, strategy to the
        last one set).

        Raises
        ------
        InfeasibleError
            If the capacities admit no fractional placement at all.
        """
        self._set_strategy(strategy)
        return self._placement_from(self._batched.solve(self._rhs(capacities)))

    def solve_many(
        self, capacity_variants
    ) -> list[FractionalPlacement | None]:
        """Solve a family of capacity vectors against the shared structure.

        Returns one entry per variant: the fractional placement, or
        ``None`` where that variant's capacities are infeasible — recorded,
        never silently dropped, matching the sweep convention of
        :meth:`~repro.lp.batched.BatchedProgram.solve_many`, which sweeps
        the capacity vectors in ascending RHS order — monotone for uniform
        sweeps, so each warm step is a small basis perturbation — and
        un-permutes the results. The strategy is the last one set.
        """
        solutions = self._batched.solve_many(
            [self._rhs(caps) for caps in capacity_variants]
        )
        return [
            None if sol is None else self._placement_from(sol)
            for sol in solutions
        ]


class FractionalFamily:
    """Per-``v0`` fractional programs sharing one constraint structure.

    The COO index arrays of the LP depend only on ``(topology, system)``;
    this family computes them once and hands out lazily-built
    :class:`FractionalProgram` instances that share them. Each call of
    the iterative algorithm (Section 4.2) threads one family through all
    its iterations, so each candidate client's LP is assembled once and
    every later iteration only rewrites load rows and re-solves warm.
    """

    def __init__(self, topology: Topology, system: QuorumSystem) -> None:
        _validate_inputs(topology, system)
        self.topology = topology
        self.system = system
        self._structure = _build_structure(topology, system)
        self._programs: dict[int, FractionalProgram] = {}

    def program(self, v0: int) -> FractionalProgram:
        """The (cached) program of one designated client."""
        program = self._programs.get(int(v0))
        if program is None:
            program = FractionalProgram(
                self.topology,
                self.system,
                int(v0),
                _structure=self._structure,
            )
            self._programs[int(v0)] = program
        return program

    def solve(
        self,
        v0: int,
        capacities: np.ndarray | None = None,
        strategy: np.ndarray | None = None,
    ) -> FractionalPlacement:
        """Solve ``v0``'s program for one parameterization."""
        return self.program(v0).solve(capacities=capacities, strategy=strategy)

    def __len__(self) -> int:
        return len(self._programs)

