"""The full many-to-one placement pipeline (Section 4.1.2).

``many_to_one_placement`` chains the three stages for a single designated
client: fractional LP -> Lin–Vitter filtering -> GAP rounding. As with the
one-to-one algorithms, the best placement overall is found by running the
single-client algorithm from every node and keeping the placement with the
smallest average network delay over all clients
(:func:`best_many_to_one_placement`).

The search solves one fractional LP per distinct candidate, so it is
where the batched LP machinery pays off. The serial path threads a
:class:`~repro.placement.fractional.FractionalFamily` through every
candidate (pass one in to reuse it across repeated searches — the
Section 4.2 iterative algorithm does exactly that within one call). A
parallel :class:`~repro.runtime.runner.GridRunner` fans the candidates
out over worker processes instead, and each task builds its candidate's
:class:`~repro.placement.fractional.FractionalProgram` and solves it
once. A search given no family therefore runs, on either path, one
solve per candidate on a freshly built program, so the two paths agree
bit for bit for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import InfeasibleError, PlacementError
from repro.network.graph import Topology
from repro.placement.filtering import lin_vitter_filter
from repro.placement.fractional import FractionalFamily, FractionalProgram
from repro.placement.gap import round_fractional_placement
from repro.quorums.base import QuorumSystem
from repro.runtime.grid import GridPoint
from repro.runtime.shm import resolve_topology

__all__ = [
    "many_to_one_placement",
    "best_many_to_one_placement",
    "ManyToOneSearchResult",
]


def many_to_one_placement(
    topology: Topology,
    system: QuorumSystem,
    v0: int,
    capacities: np.ndarray | None = None,
    strategy: np.ndarray | None = None,
    eps: float = 1.0 / 3.0,
    program: FractionalProgram | None = None,
) -> Placement:
    """LP + filter + round for designated client ``v0``.

    With ``program`` (an assembled
    :class:`~repro.placement.fractional.FractionalProgram` for this
    ``v0``), the LP stage re-solves the existing program — warm-started
    when HiGHS bindings import — instead of assembling from scratch.
    Otherwise a fresh program is built as the search builds it and solved
    once with the request, so the result is the one
    :func:`best_many_to_one_placement` scores for ``v0``.

    Raises :class:`~repro.errors.InfeasibleError` when the capacities admit
    no fractional placement at all.
    """
    if program is None:
        program = FractionalProgram(topology, system, v0)
    elif program.v0 != v0:
        raise PlacementError(
            f"program was assembled for v0={program.v0}, not v0={v0}"
        )
    frac = program.solve(capacities=capacities, strategy=strategy)
    dist = topology.distances_from(v0)
    filtered = lin_vitter_filter(frac.x, dist, eps=eps)
    return round_fractional_placement(filtered, dist, frac.element_loads)


@dataclass(frozen=True)
class ManyToOneSearchResult:
    """Outcome of the best-``v0`` search for many-to-one placements."""

    placed: PlacedQuorumSystem
    v0: int
    avg_network_delay: float
    delays_by_candidate: dict[int, float]


def _average_delay_under_global_strategy(
    placed: PlacedQuorumSystem, strategy: np.ndarray
) -> float:
    """avg over every client of sum_i p_i * delta_f(v, Q_i)."""
    return float((placed.delay_matrix @ strategy).mean())


def _many_to_one_candidate(
    topology: object,
    system: QuorumSystem,
    v0: int,
    capacities: np.ndarray | None,
    strategy: np.ndarray,
    program: FractionalProgram | None = None,
) -> tuple[np.ndarray, float] | None:
    """``(assignment, delay)`` for one candidate, or None if infeasible.

    Module-level and self-contained so the best-``v0`` search can fan
    candidates out over a process pool; ``topology`` may be a
    :class:`~repro.runtime.shm.TopologyHandle`, which resolves to the
    topology a forked worker inherited or to a zero-copy shared-memory
    view, instead of a per-task unpickled matrix. Without ``program`` the
    task builds the candidate's program itself, so a pool task holds no
    solver state from earlier tasks.
    """
    topology = resolve_topology(topology)
    try:
        placement = many_to_one_placement(
            topology, system, v0, capacities=capacities, strategy=strategy,
            program=program,
        )
    except InfeasibleError:
        return None
    placed = PlacedQuorumSystem(system, placement, topology)
    delay = _average_delay_under_global_strategy(placed, strategy)
    return placement.assignment, delay


def best_many_to_one_placement(
    topology: Topology,
    system: QuorumSystem,
    capacities: np.ndarray | None = None,
    strategy: np.ndarray | None = None,
    candidates: object = None,
    family: FractionalFamily | None = None,
    runner: object = None,
) -> ManyToOneSearchResult:
    """Run :func:`many_to_one_placement` from candidate clients, keep the best.

    Each distinct candidate is evaluated once, in order of first
    occurrence, so listing a candidate twice changes nothing. Candidates
    infeasible under the given capacities are skipped; if every
    candidate is infeasible, :class:`~repro.errors.InfeasibleError` is
    raised (e.g. capacities summed below the total system load). The
    reduction scans candidates in input order (first minimum wins), so the
    winner never depends on scheduling.

    Parameters
    ----------
    family:
        A :class:`~repro.placement.fractional.FractionalFamily` whose
        per-candidate programs are reused (and warm-started) across
        searches. Consulted on the serial path, where one is created
        internally when omitted. The parallel path ignores it (a family
        cannot cross process boundaries).
    runner:
        A :class:`~repro.runtime.runner.GridRunner`. When it would
        actually dispatch to worker processes (``jobs>1`` outside a pool
        worker), each candidate is one grid point that builds and solves
        its own program. Inside a worker — or with ``jobs=1`` — the
        runner degrades to the serial path and the (given or internal)
        family is used.
    """
    if candidates is None:
        candidate_idx = np.arange(topology.n_nodes)
    else:
        candidate_idx = np.asarray(candidates, dtype=np.intp)
    if strategy is None:
        p = np.full(system.num_quorums, 1.0 / system.num_quorums)
    else:
        p = np.asarray(strategy, dtype=np.float64)

    v0_list = list(dict.fromkeys(int(v0) for v0 in candidate_idx))
    parallel = (
        runner is not None
        and getattr(runner, "parallel", False)
        and len(v0_list) > 1
    )
    if parallel:
        # Tagged by v0, so a failed evaluation's ReproError names the
        # candidate. The topology ships as a handle (when shared memory
        # is available), so each point's payload is O(n), not O(n^2).
        ship = runner.ship(topology)
        results = runner.run(
            [
                GridPoint(
                    tag=v0,
                    fn=_many_to_one_candidate,
                    kwargs={
                        "topology": ship,
                        "system": system,
                        "v0": v0,
                        "capacities": capacities,
                        "strategy": p,
                    },
                )
                for v0 in v0_list
            ]
        )
        outcomes = [results[v0] for v0 in v0_list]
    else:
        if family is None:
            family = FractionalFamily(topology, system)
        outcomes = [
            _many_to_one_candidate(
                topology, system, v0, capacities, p,
                program=family.program(v0),
            )
            for v0 in v0_list
        ]

    best_v0 = -1
    best_delay = np.inf
    best_assignment: np.ndarray | None = None
    delays: dict[int, float] = {}
    infeasible = 0
    for v0, outcome in zip(v0_list, outcomes):
        if outcome is None:
            infeasible += 1
            continue
        assignment, delay = outcome
        delays[v0] = delay
        if delay < best_delay:
            best_v0, best_delay, best_assignment = v0, delay, assignment
    if best_assignment is None:
        raise InfeasibleError(
            f"no feasible many-to-one placement from any of "
            f"{len(v0_list)} candidates ({infeasible} infeasible)"
        )
    return ManyToOneSearchResult(
        placed=PlacedQuorumSystem(
            system, Placement(best_assignment), topology
        ),
        v0=best_v0,
        avg_network_delay=best_delay,
        delays_by_candidate=delays,
    )
