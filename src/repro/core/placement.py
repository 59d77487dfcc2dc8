"""Quorum placements: the mapping ``f : U -> V``.

A placement assigns every universe element of a quorum system to a node of
the topology (Section 4, "Quorum placement"). One-to-one placements preserve
the fault tolerance of the original system (distinct elements fail
independently); many-to-one placements may reduce network delay by
co-locating elements.

:class:`PlacedQuorumSystem` bundles (system, placement, topology) and caches
the derived quantities every algorithm needs: placed quorums ``f(Q)``, the
element-to-node incidence matrix, and the network-delay matrix
``delta_f(v, Q_i) = max_{w in f(Q_i)} d(v, w)``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.quorums.base import QuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = ["Placement", "PlacedQuorumSystem"]


class Placement:
    """An assignment of universe elements to topology nodes."""

    def __init__(self, assignment: object) -> None:
        arr = np.asarray(assignment, dtype=np.intp)
        if arr.ndim != 1 or arr.size == 0:
            raise PlacementError(
                f"assignment must be a non-empty vector, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise PlacementError("assignment contains negative node ids")
        self._assignment = arr
        self._assignment.setflags(write=False)

    @property
    def assignment(self) -> np.ndarray:
        """``assignment[u]`` is the node hosting element ``u`` (read-only)."""
        return self._assignment

    @property
    def universe_size(self) -> int:
        return self._assignment.size

    def node_of(self, element: int) -> int:
        """The node ``f(u)`` hosting a universe element."""
        return int(self._assignment[element])

    @cached_property
    def support_set(self) -> np.ndarray:
        """Sorted distinct nodes hosting at least one element (``f(U)``)."""
        return np.unique(self._assignment)

    @property
    def is_one_to_one(self) -> bool:
        """True when distinct elements land on distinct nodes."""
        return self.support_set.size == self.universe_size

    def elements_on(self, node: int) -> np.ndarray:
        """Ids of the universe elements placed on ``node``."""
        return np.flatnonzero(self._assignment == node)

    def multiplicities(self, n_nodes: int) -> np.ndarray:
        """``result[w]`` = number of elements placed on node ``w``."""
        return np.bincount(self._assignment, minlength=n_nodes)

    def validate_for(self, system: QuorumSystem, topology: Topology) -> None:
        """Check compatibility with a quorum system and a topology."""
        if self.universe_size != system.universe_size:
            raise PlacementError(
                f"placement covers {self.universe_size} elements but "
                f"{system.name} has universe size {system.universe_size}"
            )
        if int(self._assignment.max()) >= topology.n_nodes:
            raise PlacementError(
                "placement references a node outside the topology"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return np.array_equal(self._assignment, other._assignment)

    def __hash__(self) -> int:
        return hash(self._assignment.tobytes())

    def __repr__(self) -> str:
        return (
            f"Placement(universe_size={self.universe_size}, "
            f"support={self.support_set.size} nodes)"
        )


class PlacedQuorumSystem:
    """A quorum system placed on a topology; the unit every evaluator consumes."""

    def __init__(
        self,
        system: QuorumSystem,
        placement: Placement,
        topology: Topology,
    ) -> None:
        placement.validate_for(system, topology)
        self.system = system
        self.placement = placement
        self.topology = topology

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def num_quorums(self) -> int:
        return self.system.num_quorums

    @property
    def is_threshold(self) -> bool:
        """True when the system is an implicit threshold (Majority) system."""
        return isinstance(self.system, ThresholdQuorumSystem)

    @cached_property
    def placed_quorums(self) -> list[np.ndarray]:
        """For each quorum ``Q_i``, the distinct nodes of ``f(Q_i)``.

        Requires an enumerable system. Views into :attr:`quorum_node_table`.
        """
        indptr, nodes, _ = self.quorum_node_table
        return np.split(nodes, indptr[1:-1])

    @cached_property
    def quorum_node_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``f(Q_i)`` with multiplicities, as one flat (CSR) table.

        Returns ``(indptr, nodes, counts)``: quorum ``i`` accesses the
        ascending distinct nodes ``nodes[indptr[i]:indptr[i + 1]]``, and
        ``counts`` holds how many of its elements each of them hosts — the
        nonzero entries of :attr:`incidence_counts`, row by row. Requires an
        enumerable system. Read-only.
        """
        incidence = self.incidence_counts
        m = incidence.shape[0]
        rows, nodes = np.nonzero(incidence)
        counts = incidence[rows, nodes].astype(np.intp)
        indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        for arr in (indptr, nodes, counts):
            arr.setflags(write=False)
        return indptr, nodes, counts

    #: Caches that depend on the system, the placement and the node count
    #: only — never on distances or capacities.
    _TOPOLOGY_FREE = (
        "incidence_counts",
        "quorum_node_table",
        "placed_quorums",
        "_quorum_slots",
    )

    def with_topology(self, topology: Topology) -> "PlacedQuorumSystem":
        """The same placement on another topology over the same node space.

        Topology-independent structure (incidence counts, the quorum node
        table, the evaluation kernel's slot indices) is shared with the
        result instead of rebuilt. Only what this instance has already
        computed is carried, so an implicit threshold system is never
        enumerated here. The dynamics probe uses it to move one segment's
        placement onto each epoch's drifted topology.
        """
        if topology.n_nodes != self.n_nodes:
            raise PlacementError(
                f"topology has {topology.n_nodes} nodes, but this placement "
                f"lives on {self.n_nodes}"
            )
        placed = PlacedQuorumSystem(self.system, self.placement, topology)
        for name in self._TOPOLOGY_FREE:
            if name in self.__dict__:
                placed.__dict__[name] = self.__dict__[name]
        return placed

    @cached_property
    def incidence_counts(self) -> np.ndarray:
        """``A[i, w]`` = number of elements of ``Q_i`` placed on node ``w``.

        This is the paper's load model: a node hosting several elements of
        the accessed quorum processes the request once *per element*.
        """
        table, sizes = self.system.element_table
        m, n = table.shape[0], self.n_nodes
        members = table[np.arange(table.shape[1]) < sizes[:, None]]
        cells = np.repeat(np.arange(m) * n, sizes)
        cells += self.placement.assignment[members]
        # Float weights make bincount accumulate straight into the float64
        # result (exact for integer counts) without an int64 intermediate.
        counts = np.bincount(
            cells, weights=np.ones(cells.size), minlength=m * n
        )
        return counts.reshape(m, n)

    # ------------------------------------------------------------------
    # Delays
    # ------------------------------------------------------------------
    @cached_property
    def _quorum_slots(self) -> np.ndarray:
        """``slots[j, i]``: support column of slot ``j`` of quorum ``Q_i``.

        The system's padded element table mapped through the placement onto
        positions in :attr:`support_distances`, stored slot-major so each
        slot's column indices are contiguous. Duplicate nodes (many-to-one
        placements) and padding repeats are harmless under max.
        """
        table, _ = self.system.element_table
        support_col = np.searchsorted(
            self.placement.support_set, self.placement.assignment
        )
        return np.ascontiguousarray(support_col[table].T)

    #: Elements of the gathered (slots, quorums, clients) temporary of one
    #: :meth:`_max_over_quorums` chunk (16 MB of float64).
    _GATHER_BUDGET = 2_000_000

    def _max_over_quorums(self, values: np.ndarray) -> np.ndarray:
        """``out[v, i] = max_j values[v, slots[j, i]]`` over support columns.

        ``values`` is (clients, |f(U)|). Per chunk of quorums, one gather
        of every slot's column (a row of the transposed values, so each is
        one contiguous copy) and one ``max`` over the slot axis. The chunk
        shrinks with the slot count, so the gathered (slots, chunk,
        clients) temporary stays within :attr:`_GATHER_BUDGET` elements
        even for enumerated threshold systems.
        """
        slots = self._quorum_slots
        n, k, m = values.shape[0], slots.shape[0], slots.shape[1]
        out = np.empty((n, m))
        columns = np.ascontiguousarray(values.T)
        chunk = max(1, self._GATHER_BUDGET // max(1, n * k))
        for start in range(0, m, chunk):
            block = columns[slots[:, start : start + chunk]]
            out[:, start : start + chunk] = block.max(axis=0).T
        return out

    def _support_costs(self, node_costs: object) -> np.ndarray:
        """``node_costs`` (validated over all nodes) on the support columns."""
        costs = np.asarray(node_costs, dtype=np.float64)
        if costs.shape != (self.n_nodes,):
            raise PlacementError(
                f"node_costs must have shape ({self.n_nodes},), "
                f"got {costs.shape}"
            )
        return costs[self.placement.support_set]

    @cached_property
    def delay_matrix(self) -> np.ndarray:
        """``delta[v, i] = max_{w in f(Q_i)} d(v, w)`` for all clients/quorums.

        Requires an enumerable system; threshold systems use
        :meth:`support_distances` with order statistics instead. Read-only:
        it is cached and shared with :meth:`augmented_delay_matrix`.
        """
        delta = self._max_over_quorums(self.support_distances)
        delta.setflags(write=False)
        return delta

    def delay_matrix_for(self, rtt: np.ndarray) -> np.ndarray:
        """``delta[v, i]`` under an *alternative* RTT matrix.

        The dynamics subsystem uses this to re-evaluate a fixed placement
        as round-trip times drift: the placed-quorum structure (and hence
        the gather indices) is unchanged, only the distance values move.
        ``rtt`` must be square over this placement's node space; it is
        *not* re-closed metrically — drifted matrices are taken as
        measured.
        """
        values = np.asarray(rtt, dtype=np.float64)
        if values.shape != (self.n_nodes, self.n_nodes):
            raise PlacementError(
                f"rtt must have shape ({self.n_nodes}, {self.n_nodes}), "
                f"got {values.shape}"
            )
        values = values[:, self.placement.support_set]
        return self._max_over_quorums(values)

    def quorum_delay(self, client: int, quorum_index: int) -> float:
        """Network delay ``delta_f(v, Q_i)`` for one client/quorum pair."""
        nodes = self.placed_quorums[quorum_index]
        return float(self.topology.rtt[client, nodes].max())

    @cached_property
    def support_distances(self) -> np.ndarray:
        """``D[v, j] = d(v, support[j])`` for the placement's support set."""
        return self.topology.rtt[:, self.placement.support_set]

    def augmented_delay_matrix(self, node_costs: np.ndarray) -> np.ndarray:
        """``max_{w in f(Q_i)} (d(v, w) + node_costs[w])`` for all v, i.

        This is equation (4.1) with ``node_costs = alpha * load_f``. Costs
        that are zero on the support leave the delays unchanged, so that
        case returns the cached (read-only) :attr:`delay_matrix`.
        """
        costs = self._support_costs(node_costs)
        if not costs.any():
            return self.delay_matrix
        return self._max_over_quorums(self.support_distances + costs[None, :])

    def __repr__(self) -> str:
        return (
            f"PlacedQuorumSystem({self.system.name!r}, "
            f"support={self.placement.support_set.size}, "
            f"n_nodes={self.n_nodes})"
        )
