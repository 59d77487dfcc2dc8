"""The response-time model — equations (4.1) and (4.2).

The response time a client ``v`` observes when accessing quorum ``Q`` is

``rho_f(v, Q) = max_{w in f(Q)} ( d(v, w) + alpha * load_f(w) )``      (4.1)

and the expected response time under strategy ``p_v`` is

``Delta_f(v) = sum_Q p_v(Q) * rho_f(v, Q)``                            (4.2)

with objective ``avg_{v in V} Delta_f(v)``. Setting ``alpha = 0`` recovers
*average network delay*. The paper sets
``alpha = op_srv_time * client_demand`` with ``op_srv_time = 0.007 ms`` (a
Q/U write on a 2.8 GHz P4) and demand in {1000, 4000, 16000} requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.strategy import AccessStrategy
from repro.errors import StrategyError

__all__ = [
    "DEFAULT_OP_SRV_TIME_MS",
    "ResponseTimeResult",
    "alpha_from_demand",
    "client_indices",
    "evaluate",
    "average_network_delay",
]

#: Time for a server to execute one Q/U write on an Intel 2.8 GHz P4 (ms).
DEFAULT_OP_SRV_TIME_MS = 0.007


def alpha_from_demand(client_demand: float) -> float:
    """The paper's recipe ``alpha = op_srv_time * client_demand``, with
    ``op_srv_time`` = :data:`DEFAULT_OP_SRV_TIME_MS`."""
    if client_demand < 0:
        raise StrategyError("client demand must be non-negative")
    return DEFAULT_OP_SRV_TIME_MS * client_demand


@dataclass(frozen=True)
class ResponseTimeResult:
    """Evaluation of a (placement, strategy, alpha) triple.

    Attributes
    ----------
    avg_response_time:
        ``avg_v Delta_f(v)`` in milliseconds — the paper's objective.
    avg_network_delay:
        Same average with ``alpha = 0`` (pure network delay).
    per_client_response:
        ``Delta_f(v)`` per evaluated client.
    per_client_network_delay:
        Network-only ``Delta`` per evaluated client.
    node_loads:
        ``load_f(w)`` for every topology node.
    alpha:
        The queueing coefficient used, in ms per unit load.
    clients:
        The client node ids evaluated.
    """

    avg_response_time: float
    avg_network_delay: float
    per_client_response: np.ndarray
    per_client_network_delay: np.ndarray
    node_loads: np.ndarray
    alpha: float
    clients: np.ndarray

    @property
    def avg_load_penalty(self) -> float:
        """Average queueing component (response time minus network delay)."""
        return self.avg_response_time - self.avg_network_delay

    @property
    def max_node_load(self) -> float:
        """The busiest node's load (the system load under this profile)."""
        return float(self.node_loads.max())


def client_indices(n_nodes: int, clients: object) -> np.ndarray:
    """Validated client node ids; ``None`` means every node."""
    if clients is None:
        return np.arange(n_nodes)
    idx = np.asarray(clients, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise StrategyError("client set must be a non-empty 1-D index array")
    if idx.min() < 0 or idx.max() >= n_nodes:
        raise StrategyError("client set references nodes outside the topology")
    return idx


def evaluate(
    placed: PlacedQuorumSystem,
    strategy: AccessStrategy,
    alpha: float = 0.0,
    clients: object = None,
) -> ResponseTimeResult:
    """Evaluate equations (4.1)-(4.2) for a strategy profile.

    Parameters
    ----------
    placed:
        The placed quorum system.
    strategy:
        Any :class:`~repro.core.strategy.AccessStrategy`.
    alpha:
        Queueing coefficient in ms per unit node load
        (see :func:`alpha_from_demand`).
    clients:
        Node ids whose response times are averaged; defaults to all of
        ``V``, the paper's client model. **Loads are always computed over
        all clients** (every node issues requests), matching
        ``load_f(w) = avg_{v in V} load_{v,f}(w)``.
    """
    if alpha < 0:
        raise StrategyError("alpha must be non-negative")
    client_idx = client_indices(placed.n_nodes, clients)
    loads = strategy.node_loads(placed)
    network = strategy.expected_response_times(
        placed, np.zeros(placed.n_nodes), client_idx
    )
    costs = alpha * loads
    # Zero queueing costs (alpha = 0 or an idle profile) make (4.1) the
    # pure network delay: reuse it instead of evaluating it twice.
    response = (
        strategy.expected_response_times(placed, costs, client_idx)
        if costs.any()
        else network
    )
    return ResponseTimeResult(
        avg_response_time=float(response.mean()),
        avg_network_delay=float(network.mean()),
        per_client_response=response,
        per_client_network_delay=network,
        node_loads=loads,
        alpha=float(alpha),
        clients=client_idx,
    )


def average_network_delay(
    placed: PlacedQuorumSystem, strategy: AccessStrategy
) -> float:
    """Convenience wrapper: the ``alpha = 0`` objective over every client."""
    return evaluate(placed, strategy, alpha=0.0).avg_network_delay
