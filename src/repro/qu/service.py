"""Wiring a Q/U service onto a topology inside the simulator.

:class:`QUService` instantiates ``n`` servers at the nodes of a placement's
support set and any number of clients at chosen nodes, connecting both
through :class:`~repro.sim.network.SimNetwork`. It is the simulated
equivalent of the paper's Modelnet deployment: servers at placement nodes,
``c`` clients at each of the selected client sites, all request/reply
traffic crossing the emulated WAN.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.qu.client import QUClient
from repro.qu.messages import QURequest
from repro.qu.objects import Candidate
from repro.qu.server import QUServer
from repro.sim.engine import Simulator
from repro.sim.metrics import OperationRecord
from repro.sim.network import SimNetwork, check_nodes

__all__ = ["QUService"]

#: Clients start at uniform random offsets within this window.
START_STAGGER_MS = 1.0


class QUService:
    """A Q/U deployment: servers, clients, and the simulated WAN.

    Request legs are network messages, one event each. A reply is not an
    event: when a server sends it, the network gives its delay and the
    engine reserves its sequence number, and the client files it (see
    :meth:`QUClient.on_reply`). An attempt on a quorum of ``q`` servers
    therefore costs ``2q + 1`` events: ``q`` request deliveries, ``q``
    service completions and one completion at the client.
    """

    def __init__(
        self,
        topology: Topology,
        server_nodes: np.ndarray,
        quorum_size: int,
        service_time_ms: float = 1.0,
        seed: int = 0,
    ) -> None:
        server_nodes = np.asarray(server_nodes, dtype=np.intp)
        if server_nodes.size == 0:
            raise SimulationError("at least one server node is required")
        check_nodes(topology, server_nodes.tolist(), "server")
        if len(np.unique(server_nodes)) != server_nodes.size:
            raise SimulationError("server nodes must be distinct")
        if not 1 <= quorum_size <= server_nodes.size:
            raise SimulationError(
                f"quorum size {quorum_size} invalid for "
                f"{server_nodes.size} servers"
            )
        self.sim = Simulator()
        self.topology = topology
        self.network = SimNetwork(self.sim, topology)
        self.quorum_size = quorum_size
        self._seed = seed

        self.servers: list[QUServer] = [
            QUServer(
                server_id=i,
                node=int(node),
                sim=self.sim,
                send_reply=self._route_reply,
                service_time_ms=service_time_ms,
            )
            for i, node in enumerate(server_nodes)
        ]
        self.clients: list[QUClient] = []

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_request(self, request: QURequest, quorum: list[int]) -> None:
        node = request.client.node
        send = self.network.send
        servers = self.servers
        for server_id in quorum:
            server = servers[server_id]
            send(node, server.node, request, server.on_request)

    def _route_reply(
        self,
        server_node: int,
        request: QURequest,
        accepted: bool,
        latest: Candidate,
    ) -> None:
        client = request.client
        delay = self.network.message_delay(server_node, client.node)
        client.on_reply(
            accepted, latest, self.sim.now + delay, self.sim.reserve()
        )

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_client(self, node: int) -> QUClient:
        """Create a client at a topology node (not started yet); it writes
        its own object."""
        node = int(node)
        check_nodes(self.topology, [node], "client")
        client_id = len(self.clients)
        server_nodes = [s.node for s in self.servers]
        client = QUClient(
            client_id=client_id,
            node=node,
            sim=self.sim,
            send_request=self._route_request,
            rtt_to_server=lambda sid, _nodes=server_nodes, _n=node: (
                self.topology.distance(_n, _nodes[sid])
            ),
            n_servers=len(self.servers),
            quorum_size=self.quorum_size,
            seed=self._seed * 100_003 + 7919 * client_id,
        )
        self.clients.append(client)
        return client

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_ms: float) -> None:
        """Start every client (staggered) and run for ``duration_ms``."""
        if not self.clients:
            raise SimulationError("no clients to run")
        rng = np.random.default_rng(self._seed)
        for client in self.clients:
            client.start(
                initial_delay_ms=float(rng.uniform(0.0, START_STAGGER_MS))
            )
        self.sim.run(until=duration_ms)
        for client in self.clients:
            client.stop()

    def all_records(self) -> list[OperationRecord]:
        """Completed-operation records across every client."""
        records: list[OperationRecord] = []
        for client in self.clients:
            records.extend(client.records)
        return records

    def server_utilizations(self) -> np.ndarray:
        """Per-server busy fraction over the elapsed simulation time."""
        elapsed = self.sim.now
        if elapsed <= 0:
            raise SimulationError("service has not run yet")
        return np.asarray([s.utilization(elapsed) for s in self.servers])
