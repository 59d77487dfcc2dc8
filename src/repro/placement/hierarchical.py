"""Hierarchical best-``v0`` search for multi-thousand-node topologies.

The paper's recipe — run the single-client construction from *every* node
and keep the best (Section 4.1.1) — is linear in candidates, and each
candidate evaluation touches O(n) state, so on 1k–10k-site topologies the
exhaustive search does thousands of times more work than the answer needs:
wide-area RTT space is clustered (continents, metro areas), and the best
designated client is essentially always inside a dense, central cluster.

This module exploits that structure in three stages:

1. **Cluster** the sites on the RTT metric itself (deterministic
   farthest-point seeding from the graph median, then medoid refinement —
   no randomness, no coordinates needed, so it works for measured
   matrices as well as generated ones);
2. **Coarse search**: evaluate only the cluster medoids as candidates and
   rank clusters by their medoid's average delay;
3. **Refine**: evaluate every member of the top :data:`REFINE_TOP`
   clusters (the medoids stay in the pool, so the result can never be
   worse than the coarse stage) and keep the overall winner.

The same filtering intuition as Lin–Vitter (:mod:`repro.placement.filtering`)
applies: nodes far from the demand-weighted centre cannot host a winning
placement, so candidates outside the best few clusters are never tried.
The search degrades to the exact exhaustive :func:`~repro.placement.search.
best_placement` when the topology is small (:data:`EXACT_THRESHOLD`, 200
sites — the scale of the paper's datasets), which pins hierarchical =
exhaustive there; on larger topologies it is a heuristic whose quality is
regression-bounded in ``tests/test_hierarchical.py``.

Candidate evaluations fan out through the same :class:`~repro.runtime.
runner.GridRunner` + shared-memory machinery as the exhaustive search, so
``jobs=N`` stays bit-identical to ``jobs=1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.placement.search import PlacementSearchResult, best_placement
from repro.quorums.base import QuorumSystem
from repro.runtime.runner import GridRunner

__all__ = [
    "EXACT_THRESHOLD",
    "REFINE_TOP",
    "ClusterModel",
    "HierarchicalSearchResult",
    "cluster_sites",
    "hierarchical_best_placement",
]

#: Up to this many sites the search *is* the exhaustive ``best_placement``
#: (marked ``exhaustive=True`` in the result): the exactness pin for
#: paper-scale topologies.
EXACT_THRESHOLD = 200

#: How many of the best-ranked clusters the refine stage searches
#: exhaustively.
REFINE_TOP = 3

#: Medoid refinement rounds of :func:`cluster_sites` before it stops
#: waiting for the assignment to stabilize.
_MEDOID_ROUNDS = 8


@dataclass(frozen=True)
class ClusterModel:
    """A partition of the sites with one medoid per cluster.

    ``clusters[i]`` holds the (sorted) node ids of cluster ``i`` and
    ``medoids[i]`` the member minimizing the total intra-cluster distance.
    Clusters are ordered by their medoid's node id, so the model is a pure
    function of the topology (no seeds, no iteration-order luck).
    """

    clusters: tuple[np.ndarray, ...]
    medoids: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def cluster_of(self, node: int) -> int:
        """Index of the cluster containing ``node``."""
        for i, members in enumerate(self.clusters):
            if node in members:
                return i
        raise PlacementError(f"node {node} is in no cluster")


def cluster_sites(topology: Topology, n_clusters: int) -> ClusterModel:
    """Deterministic medoid clustering on the RTT metric.

    Seeds are chosen farthest-point-first starting from the graph median
    (ties broken by node id), every node joins its nearest seed, and
    medoids are recomputed until the assignment stabilizes (at most
    eight rounds). Requested clusters that end up empty —
    possible only when distinct nodes sit at distance zero — are dropped,
    so the returned model may have fewer than ``n_clusters`` clusters.
    """
    n = topology.n_nodes
    if not 1 <= n_clusters <= n:
        raise PlacementError(
            f"n_clusters must be in [1, {n}], got {n_clusters}"
        )
    d = topology.rtt

    # Farthest-point seeding from the median, with a running min-distance
    # vector so the whole seeding pass is O(k * n).
    seeds = [topology.median()]
    nearest = d[seeds[0]].copy()
    while len(seeds) < n_clusters:
        nxt = int(np.argmax(nearest))  # argmax -> first max: lowest id wins
        seeds.append(nxt)
        np.minimum(nearest, d[nxt], out=nearest)

    centres = np.asarray(seeds, dtype=np.intp)
    assignment = np.argmin(d[:, centres], axis=1)  # ties -> first centre
    for _ in range(_MEDOID_ROUNDS):
        medoids = []
        for i in range(len(centres)):
            members = np.flatnonzero(assignment == i)
            if members.size == 0:
                continue  # re-filled below if another centre absorbs it
            intra = d[np.ix_(members, members)].sum(axis=1)
            medoids.append(int(members[np.argmin(intra)]))
        centres = np.asarray(sorted(set(medoids)), dtype=np.intp)
        new_assignment = np.argmin(d[:, centres], axis=1)
        if np.array_equal(new_assignment, assignment) and len(medoids) == len(
            centres
        ):
            break
        assignment = new_assignment

    clusters = tuple(
        np.flatnonzero(assignment == i) for i in range(len(centres))
    )
    keep = [i for i, members in enumerate(clusters) if members.size > 0]
    return ClusterModel(
        clusters=tuple(clusters[i] for i in keep),
        medoids=centres[keep],
    )


@dataclass(frozen=True)
class HierarchicalSearchResult:
    """Outcome of the hierarchical search.

    The first four fields mirror :class:`~repro.placement.search.
    PlacementSearchResult` (``delays_by_candidate`` covers only the
    candidates the search actually evaluated); the rest record what the
    hierarchy did, for tests and benchmark metadata.
    """

    placed: object
    v0: int
    avg_network_delay: float
    delays_by_candidate: dict[int, float]
    n_candidates: int
    n_sites: int
    exhaustive: bool
    medoids: tuple[int, ...]
    refined_clusters: tuple[int, ...]


def _wrap(
    result: PlacementSearchResult,
    n_sites: int,
    exhaustive: bool,
    medoids: tuple[int, ...],
    refined: tuple[int, ...],
) -> HierarchicalSearchResult:
    return HierarchicalSearchResult(
        placed=result.placed,
        v0=result.v0,
        avg_network_delay=result.avg_network_delay,
        delays_by_candidate=result.delays_by_candidate,
        n_candidates=len(result.delays_by_candidate),
        n_sites=n_sites,
        exhaustive=exhaustive,
        medoids=medoids,
        refined_clusters=refined,
    )


def hierarchical_best_placement(
    topology: Topology,
    system: QuorumSystem,
    jobs: int = 1,
) -> HierarchicalSearchResult:
    """Best one-to-one placement via cluster -> coarse -> refine.

    Parameters
    ----------
    topology, system:
        As for :func:`~repro.placement.search.best_placement`.
    jobs:
        Candidate-evaluation parallelism, exactly as in
        ``best_placement``; both stages reuse one runner (and publish the
        topology to shared memory once).
    """
    n = topology.n_nodes
    runner = GridRunner(jobs=jobs) if jobs != 1 else None
    try:
        if n <= EXACT_THRESHOLD:
            result = best_placement(topology, system, runner=runner)
            return _wrap(result, n, True, (), ())

        # round(sqrt(n)) clusters balance the coarse pass (one evaluation
        # per cluster) against the refine pass (~REFINE_TOP * n / k).
        model = cluster_sites(topology, max(2, round(n**0.5)))

        coarse = best_placement(
            topology, system, candidates=model.medoids, runner=runner
        )
        # Rank clusters by their medoid's delay; ties break on cluster index.
        order = sorted(
            range(model.n_clusters),
            key=lambda i: (
                coarse.delays_by_candidate[int(model.medoids[i])],
                i,
            ),
        )
        top = order[:REFINE_TOP]

        # Refined pool: every medoid (so the coarse winner survives),
        # then the members of the best clusters in rank order. Dedup
        # preserves first occurrence, keeping the scan order — and
        # therefore the first-minimum tie-break — deterministic.
        pool: list[int] = [int(m) for m in model.medoids]
        seen = set(pool)
        for i in top:
            for node in model.clusters[i]:
                node = int(node)
                if node not in seen:
                    seen.add(node)
                    pool.append(node)

        refined = best_placement(
            topology,
            system,
            candidates=np.asarray(pool, dtype=np.intp),
            runner=runner,
        )
        return _wrap(
            refined,
            n,
            False,
            tuple(int(m) for m in model.medoids),
            tuple(int(i) for i in top),
        )
    finally:
        if runner is not None:
            runner.close()
