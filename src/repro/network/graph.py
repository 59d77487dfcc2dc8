"""Network topology model.

The paper models the network as an undirected graph ``G = (V, E)`` with a
positive length per edge, inducing a shortest-path distance
``d : V x V -> R+`` (Section 4, "Network"). Measured wide-area datasets are
delivered as RTT matrices; we treat the matrix as a complete weighted graph
and apply *metric closure* (all-pairs shortest paths) so that ``d`` is a true
metric even when raw measurements violate the triangle inequality, as real
RTT data routinely does.

Each node also has a capacity ``cap(v)``, "a measure of its processing
capability"; capacities are dimensionless load units in ``[0, 1]`` matching
the paper's use of capacity as a knob for access-strategy optimization.
"""

from __future__ import annotations

# cache-key-input: topology_fingerprint hashes Topology.rtt/capacities/
# names; any change to how this module builds or normalizes them (metric
# closure, dtype, ordering) shifts every cache key downstream.

from typing import Iterable, Sequence

import numpy as np

from repro.errors import TopologyError

__all__ = ["Topology"]


def _as_rtt_array(rtt: object) -> np.ndarray:
    matrix = np.asarray(rtt, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise TopologyError(f"RTT matrix must be square, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        raise TopologyError("topology must contain at least one node")
    if not np.all(np.isfinite(matrix)):
        raise TopologyError("RTT matrix contains non-finite entries")
    if np.any(matrix < 0):
        raise TopologyError("RTT matrix contains negative entries")
    return matrix


def _close_metric(matrix: np.ndarray) -> None:
    """Replace a symmetric RTT matrix by its shortest-path closure, in place.

    A Floyd–Warshall pass over the complete graph: for each intermediate
    node ``k``, ``d = min(d, d[:, k] + d[k, :])``, O(n³) in all. An
    off-diagonal zero is a missing link, not a free one: it becomes
    ``inf`` first, and stays ``inf`` when no path joins its endpoints.
    Each entry takes the same additions and exact minima as
    ``scipy.sparse.csgraph.shortest_path(method="FW", directed=False)``,
    so the closure equals scipy's bit for bit (pinned in
    ``tests/test_network_graph.py``).
    """
    missing = matrix == 0
    np.fill_diagonal(missing, False)
    matrix[missing] = np.inf
    for k in range(matrix.shape[0]):
        np.minimum(
            matrix, matrix[:, k, None] + matrix[None, k, :], out=matrix
        )


class Topology:
    """A wide-area topology: nodes, an RTT metric, and node capacities.

    Parameters
    ----------
    rtt:
        Square array of round-trip times in milliseconds. Must be
        non-negative with a zero diagonal; small asymmetries are averaged
        away. By default the metric closure (all-pairs shortest path) of the
        matrix is taken so distances satisfy the triangle inequality; under
        the closure an off-diagonal zero is a missing link, and nodes that
        no path joins end up ``inf`` apart.
    names:
        Optional node names (e.g. site hostnames). Defaults to ``site-<i>``.
    capacities:
        Optional per-node capacities ``cap(v)``. Defaults to 1.0 for every
        node (a node may absorb the full system load).
    metric_closure:
        When True (default), replace the RTT matrix by its shortest-path
        closure: a numpy Floyd–Warshall, O(n³), equal bit for bit to
        scipy's ``shortest_path(method="FW", directed=False)``.
    """

    def __init__(
        self,
        rtt: object,
        names: Sequence[str] | None = None,
        capacities: Sequence[float] | None = None,
        metric_closure: bool = True,
    ) -> None:
        matrix = _as_rtt_array(rtt)
        n = matrix.shape[0]
        if np.any(np.diag(matrix) != 0):
            raise TopologyError("RTT matrix must have a zero diagonal")
        # Symmetrize: ping measurements of v->w and w->v may differ slightly.
        # One new matrix, halved in place: the bits of (m + m.T) / 2.0.
        matrix = np.add(matrix, matrix.T)
        matrix /= 2.0
        if metric_closure and n > 1:
            _close_metric(matrix)
        self._rtt = matrix
        self._rtt.setflags(write=False)

        if names is None:
            names = [f"site-{i}" for i in range(n)]
        names = list(names)
        if len(names) != n:
            raise TopologyError(
                f"expected {n} node names, got {len(names)}"
            )
        if len(set(names)) != n:
            raise TopologyError("node names must be unique")
        self._names = tuple(names)

        if capacities is None:
            caps = np.ones(n, dtype=np.float64)
        else:
            caps = np.asarray(capacities, dtype=np.float64)
            if caps.shape != (n,):
                raise TopologyError(
                    f"expected {n} capacities, got shape {caps.shape}"
                )
            if np.any(caps < 0):
                raise TopologyError("capacities must be non-negative")
        self._capacities = caps
        self._capacities.setflags(write=False)

    @classmethod
    def adopt(
        cls,
        rtt: np.ndarray,
        names: Sequence[str],
        capacities: np.ndarray,
    ) -> "Topology":
        """Wrap an already-validated RTT matrix without copying it.

        The normal constructor symmetrizes and (by default) metric-closes
        its input, which allocates a fresh O(n^2) matrix — exactly what a
        worker rehydrating a topology from a shared-memory block must not
        do. ``adopt`` trusts the caller: the matrix must have been produced
        by a :class:`Topology` (symmetrized, zero diagonal, closure already
        applied or deliberately skipped), or built the same way, as
        :func:`~repro.network.generators.generate_cluster_topology` builds
        its closure-free matrices, and is stored as-is, marked read-only.
        Only O(n) shape checks are performed.
        """
        matrix = np.asarray(rtt)
        if matrix.dtype != np.float64:
            raise TopologyError(
                f"adopt requires a float64 RTT matrix, got {matrix.dtype}"
            )
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise TopologyError(
                f"RTT matrix must be square, got shape {matrix.shape}"
            )
        n = matrix.shape[0]
        if n == 0:
            raise TopologyError("topology must contain at least one node")
        matrix.setflags(write=False)

        names = list(names)
        if len(names) != n:
            raise TopologyError(f"expected {n} node names, got {len(names)}")
        if len(set(names)) != n:
            raise TopologyError("node names must be unique")

        caps = np.asarray(capacities, dtype=np.float64)
        if caps.shape != (n,):
            raise TopologyError(
                f"expected {n} capacities, got shape {caps.shape}"
            )
        caps.setflags(write=False)

        obj = cls.__new__(cls)
        obj._rtt = matrix
        obj._names = tuple(names)
        obj._capacities = caps
        return obj

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of wide-area sites."""
        return self._rtt.shape[0]

    @property
    def rtt(self) -> np.ndarray:
        """The (read-only) RTT matrix in milliseconds."""
        return self._rtt

    @property
    def names(self) -> tuple[str, ...]:
        """Node names, indexed by node id."""
        return self._names

    @property
    def capacities(self) -> np.ndarray:
        """Per-node capacities ``cap(v)`` (read-only)."""
        return self._capacities

    def __len__(self) -> int:
        return self.n_nodes

    def __repr__(self) -> str:
        return f"Topology(n_nodes={self.n_nodes})"

    def index_of(self, name: str) -> int:
        """Return the node id for a node name."""
        try:
            return self._names.index(name)
        except ValueError:
            raise TopologyError(f"unknown node name: {name!r}") from None

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def distance(self, v: int, w: int) -> float:
        """Round-trip time ``d(v, w)`` in milliseconds."""
        return float(self._rtt[v, w])

    def distances_from(self, v: int) -> np.ndarray:
        """RTT vector from node ``v`` to every node (read-only view)."""
        return self._rtt[v]

    def ball(self, v: int, k: int, capacity_at_least: float = 0.0) -> np.ndarray:
        """The ball ``B(v, k)``: ids of the ``k`` nodes closest to ``v``.

        Ordered by distance from ``v``, ties broken by node id, so the
        result is deterministic. Only nodes whose capacity is at least
        ``capacity_at_least`` are eligible (the paper requires
        ``cap(v) >= load_f(u)`` for hosting nodes) — ``v`` itself included:
        it is in the ball only when it is eligible.
        """
        if not 1 <= k <= self.n_nodes:
            raise TopologyError(
                f"ball size must be in [1, {self.n_nodes}], got {k}"
            )
        eligible = np.flatnonzero(self._capacities >= capacity_at_least)
        if len(eligible) < k:
            raise TopologyError(
                f"only {len(eligible)} nodes have capacity >= "
                f"{capacity_at_least}; cannot build a ball of size {k}"
            )
        dists = self._rtt[v, eligible]
        order = np.lexsort((eligible, dists))
        return eligible[order[:k]]

    def mean_distances(self) -> np.ndarray:
        """Average distance from every client to each node.

        ``result[w] = avg_{v in V} d(v, w)``: the paper's client set is all
        of ``V``.
        """
        return self._rtt.mean(axis=0)

    def median(self) -> int:
        """The node minimizing the sum of distances from all clients.

        This is the optimal location for the singleton placement (Section
        4.1.2); ties are broken by node id.
        """
        return int(np.argmin(self.mean_distances()))

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_capacities(self, capacities: Sequence[float]) -> "Topology":
        """A copy of this topology with different node capacities."""
        return Topology(
            self._rtt,
            names=self._names,
            capacities=capacities,
            metric_closure=False,
        )

    def subtopology(self, nodes: Iterable[int]) -> "Topology":
        """The induced topology on a subset of nodes (ids are re-numbered)."""
        idx = np.asarray(list(nodes), dtype=np.intp)
        if idx.size == 0:
            raise TopologyError("subtopology must contain at least one node")
        if len(np.unique(idx)) != idx.size:
            raise TopologyError("subtopology node list contains duplicates")
        sub = self._rtt[np.ix_(idx, idx)]
        return Topology(
            sub,
            names=[self._names[i] for i in idx],
            capacities=self._capacities[idx],
            metric_closure=False,
        )
