"""Message delivery over a topology inside the simulator.

The topology's matrix holds round-trip times; a one-way message from ``v``
to ``w`` is delivered ``d(v, w) / 2`` ms after it is sent (the paper's
client-to-quorum interactions are symmetric request/reply round trips).
The network is exact (no jitter), so analytic and simulated network delays
compare exactly.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.sim.engine import Simulator

__all__ = ["SimNetwork", "check_nodes"]


def check_nodes(topology: Topology, nodes: Iterable[int], role: str) -> None:
    """Reject node ids outside ``[0, n_nodes)``.

    Negative ids would otherwise index the delay matrix from its end and
    ids past it fail with a raw ``IndexError``; ``role`` names the nodes
    in the message.
    """
    n_nodes = topology.n_nodes
    for node in nodes:
        if not 0 <= node < n_nodes:
            raise SimulationError(
                f"{role} node {node} is outside the topology's "
                f"{n_nodes} nodes [0, {n_nodes})"
            )


class SimNetwork:
    """Delivers payloads between topology nodes with RTT/2 one-way delay."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self._sim = sim
        self._topology = topology
        self.messages_sent = 0
        # One-way delays by source, filled one pair on first use: only the
        # pairs that exchange messages are ever stored, so memory stays
        # proportional to the traffic pattern, not O(n^2).
        self._delays: dict[int, dict[int, float]] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    def one_way_delay(self, src: int, dst: int) -> float:
        """The one-way delay ``d(src, dst) / 2``."""
        return self._topology.distance(src, dst) / 2.0

    def message_delay(self, src: int, dst: int) -> float:
        """The delay of one message from ``src`` to ``dst``: the memoized
        one-way delay. The message counts in ``messages_sent``, so callers
        that deliver a message themselves call this when they send it.
        """
        try:
            delay = self._delays[src][dst]
        except KeyError:
            delay = self._delays.setdefault(src, {})[dst] = (
                self.one_way_delay(src, dst)
            )
        self.messages_sent += 1
        return delay

    def send(
        self,
        src: int,
        dst: int,
        payload: object,
        on_delivery: Callable[[object], None],
    ) -> None:
        """Deliver ``payload`` to ``on_delivery`` after the one-way delay."""
        self._sim.schedule(
            self.message_delay(src, dst), partial(on_delivery, payload)
        )
