"""Access strategies: per-client distributions over quorums.

Strategies come in two flavours matching the two quorum-system
representations:

* :class:`ExplicitStrategy` — a matrix ``P[v, i] = p_v(Q_i)`` over an
  enumerated system; produced by the closest/balanced constructors and by
  the LP optimizer.
* :class:`ThresholdClosestStrategy` / :class:`ThresholdBalancedStrategy` —
  implicit strategies over threshold systems with combinatorially many
  quorums; evaluated exactly through the threshold structure (closest =
  q nearest support nodes; balanced = order statistics of a uniform random
  q-subset).

Every strategy knows how to compute (a) the node loads it induces and (b)
per-client expected response times given per-node queueing costs, which is
all :mod:`repro.core.response_time` needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core import load as load_mod
from repro.core.placement import PlacedQuorumSystem
from repro.errors import StrategyError
from repro.quorums.order_stats import max_order_statistic_pmf

__all__ = [
    "AccessStrategy",
    "ExplicitStrategy",
    "ThresholdClosestStrategy",
    "ThresholdBalancedStrategy",
]


class AccessStrategy(ABC):
    """A strategy profile ``{p_v}`` for all clients of a placed system."""

    @abstractmethod
    def node_loads(self, placed: PlacedQuorumSystem) -> np.ndarray:
        """``load_f(w)`` induced by this profile (averaged over clients)."""

    @abstractmethod
    def expected_response_times(
        self,
        placed: PlacedQuorumSystem,
        node_costs: np.ndarray,
        clients: np.ndarray,
    ) -> np.ndarray:
        """``Delta_f(v)`` for each client given per-node additive costs.

        ``node_costs[w]`` is ``alpha * load_f(w)`` (or zero for pure network
        delay); the response time of an access to ``Q`` is
        ``max_{w in f(Q)} (d(v, w) + node_costs[w])`` per equation (4.1).
        """


class ExplicitStrategy(AccessStrategy):
    """Strategy profile as a (clients x quorums) probability matrix."""

    def __init__(self, matrix: object) -> None:
        p = np.asarray(matrix, dtype=np.float64)
        if p.ndim != 2:
            raise StrategyError(
                f"strategy matrix must be 2-D, got shape {p.shape}"
            )
        if np.any(p < -1e-6):
            raise StrategyError("strategy probabilities must be non-negative")
        row_sums = p.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise StrategyError(
                f"client {worst} strategy sums to {row_sums[worst]:.6f}, "
                "expected 1"
            )
        # Clean tiny numerical noise from LP solutions.
        p = np.clip(p, 0.0, None)
        p = p / p.sum(axis=1, keepdims=True)
        self._matrix = p
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The (read-only) probability matrix ``P[v, i]``."""
        return self._matrix

    @property
    def n_clients(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_quorums(self) -> int:
        return self._matrix.shape[1]

    def average_strategy(self) -> np.ndarray:
        """The global strategy ``avg({p_v})`` (used by the iterative phase 1)."""
        return self._matrix.mean(axis=0)

    def _check_compatible(self, placed: PlacedQuorumSystem) -> None:
        if self.num_quorums != placed.num_quorums:
            raise StrategyError(
                f"strategy covers {self.num_quorums} quorums, "
                f"system has {placed.num_quorums}"
            )
        if self.n_clients != placed.n_nodes:
            raise StrategyError(
                f"strategy covers {self.n_clients} clients, "
                f"topology has {placed.n_nodes} nodes"
            )

    def node_loads(self, placed: PlacedQuorumSystem) -> np.ndarray:
        self._check_compatible(placed)
        return load_mod.node_loads(placed, self._matrix)

    def expected_response_times(
        self,
        placed: PlacedQuorumSystem,
        node_costs: np.ndarray,
        clients: np.ndarray,
    ) -> np.ndarray:
        self._check_compatible(placed)
        rho = placed.augmented_delay_matrix(node_costs)
        return np.einsum("vi,vi->v", self._matrix[clients], rho[clients])

    # Constructors -----------------------------------------------------
    @staticmethod
    def uniform(placed: PlacedQuorumSystem) -> "ExplicitStrategy":
        """The balanced strategy: every client samples quorums uniformly."""
        m = placed.num_quorums
        return ExplicitStrategy(np.full((placed.n_nodes, m), 1.0 / m))

    @staticmethod
    def closest(placed: PlacedQuorumSystem) -> "ExplicitStrategy":
        """The closest-quorum strategy: ``p_v`` is a point mass on the
        quorum minimizing network delay for ``v`` (ties to the lowest
        quorum index)."""
        delta = placed.delay_matrix
        choice = np.argmin(delta, axis=1)
        p = np.zeros_like(delta)
        p[np.arange(placed.n_nodes), choice] = 1.0
        return ExplicitStrategy(p)

    @staticmethod
    def single_quorum(placed: PlacedQuorumSystem, index: int) -> "ExplicitStrategy":
        """All clients deterministically access quorum ``index``."""
        if not 0 <= index < placed.num_quorums:
            raise StrategyError(f"quorum index {index} out of range")
        p = np.zeros((placed.n_nodes, placed.num_quorums))
        p[:, index] = 1.0
        return ExplicitStrategy(p)


def _require_one_to_one_threshold(placed: PlacedQuorumSystem) -> None:
    if not placed.is_threshold:
        raise StrategyError(
            "threshold strategies require a ThresholdQuorumSystem"
        )
    if not placed.placement.is_one_to_one:
        raise StrategyError(
            "implicit threshold strategies require a one-to-one placement "
            "(many-to-one thresholds must be enumerated)"
        )


class ThresholdClosestStrategy(AccessStrategy):
    """Closest strategy over an implicit threshold system.

    The closest quorum of client ``v`` is the set of the ``q`` support nodes
    nearest to ``v`` (by network distance; the delay is the ``q``-th smallest
    distance). This needs no enumeration of the ``C(n, q)`` quorums.
    """

    def node_loads(self, placed: PlacedQuorumSystem) -> np.ndarray:
        _require_one_to_one_threshold(placed)
        q = placed.system.quorum_size
        support = placed.placement.support_set
        dist = placed.support_distances  # (n_clients, n_support)
        n_clients = placed.n_nodes
        # The q nearest support nodes per client, ties broken by support
        # order (stable sort), all clients at once.
        chosen = np.argsort(dist, axis=1, kind="stable")[:, :q]
        loads = np.zeros(placed.n_nodes)
        np.add.at(loads, support[chosen].ravel(), 1.0)
        return loads / n_clients

    def expected_response_times(
        self,
        placed: PlacedQuorumSystem,
        node_costs: np.ndarray,
        clients: np.ndarray,
    ) -> np.ndarray:
        _require_one_to_one_threshold(placed)
        q = placed.system.quorum_size
        support = placed.placement.support_set
        dist = placed.support_distances[clients]
        costs = np.asarray(node_costs, dtype=np.float64)[support]
        chosen = np.argsort(dist, axis=1, kind="stable")[:, :q]
        augmented = np.take_along_axis(
            dist + costs[None, :], chosen, axis=1
        )
        return augmented.max(axis=1)


class ThresholdBalancedStrategy(AccessStrategy):
    """Balanced strategy over an implicit threshold system.

    A uniformly random ``q``-subset of the support; node loads are exactly
    ``q/n`` per support node, and the per-client expected response time is
    the expectation of the maximum of ``d(v, w) + cost(w)`` over a random
    ``q``-subset, computed exactly via order statistics.
    """

    def node_loads(self, placed: PlacedQuorumSystem) -> np.ndarray:
        _require_one_to_one_threshold(placed)
        system = placed.system
        loads = np.zeros(placed.n_nodes)
        loads[placed.placement.support_set] = (
            system.quorum_size / system.universe_size
        )
        return loads

    def expected_response_times(
        self,
        placed: PlacedQuorumSystem,
        node_costs: np.ndarray,
        clients: np.ndarray,
    ) -> np.ndarray:
        _require_one_to_one_threshold(placed)
        system = placed.system
        n, q = system.universe_size, system.quorum_size
        support = placed.placement.support_set
        dist = placed.support_distances
        costs = np.asarray(node_costs, dtype=np.float64)[support]
        pmf = max_order_statistic_pmf(n, q)
        augmented = dist[clients] + costs[None, :]
        augmented.sort(axis=1)
        return augmented @ pmf
