"""Generic quorum-protocol simulation.

The paper's methodology combines "experiments with a real protocol
implementation [Q/U] ... and simulation of a generic quorum system protocol
over models of several actual wide-area network topologies" (Section 1).
This module is that generic simulator: closed-loop clients issue one
round-trip accesses to quorums of an arbitrary *placed* quorum system,
sampling quorums from an explicit strategy profile (or uniformly, for the
balanced strategy over a threshold system); servers process requests
through FIFO queues, one service unit per hosted element of the accessed
quorum. The network is exact: a message takes ``d(v, w) / 2``.

Its main use is validating the analytic response-time model (4.1)-(4.2):
at low demand the simulated mean response time converges to the model's
network-delay prediction, and the load the simulation observes per node
converges to ``load_f(w)`` (tests in ``tests/test_generic_sim.py``).

This event-driven engine is the **reference backend**. Open-loop runs can
instead select ``backend="fluid"`` — the vectorized engine in
:mod:`repro.sim.fluid` that replays the same scenario as numpy array
passes at millions of simulated requests per second, pinned
distribution-equivalent to this engine by
``tests/test_fluid_equivalence.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.strategy import (
    AccessStrategy,
    ExplicitStrategy,
    ThresholdBalancedStrategy,
)
from repro.errors import SimulationError
from repro.obs import tracer as obs
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    OperationRecord,
    PairTelemetry,
    ResponseTimeStats,
    summarize,
)
from repro.sim.network import SimNetwork, check_nodes
from repro.sim.workload import PoissonArrivals

__all__ = ["GenericQuorumSimulation", "GenericSimResult"]

#: Closed-loop clients start at uniform random offsets within this window.
START_STAGGER_MS = 1.0


class _Server:
    """FIFO single-processor node; serves every element it hosts."""

    __slots__ = ("node", "service_time_ms", "queue", "busy", "sim",
                 "network", "requests_processed", "busy_time_ms")

    def __init__(self, node, service_time_ms, sim, network):
        self.node = node
        self.service_time_ms = service_time_ms
        self.queue: deque = deque()
        self.busy = False
        self.sim = sim
        self.network = network
        self.requests_processed = 0
        self.busy_time_ms = 0.0

    def on_request(self, message) -> None:
        message.arrived_ms = self.sim.now
        self.queue.append(message)
        if not self.busy:
            self._next()

    def _next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        message = self.queue.popleft()
        # One service slot per hosted element of the accessed quorum: the
        # paper's per-element load model. `message.units` carries the count.
        service = self.service_time_ms * message.units
        self.busy_time_ms += service
        self.sim.schedule(service, self._reply, message)

    def _reply(self, message) -> None:
        self.requests_processed += 1
        # Server-side report piggybacked on the reply: which server
        # answered and how long the request resided here (wait + service).
        # Clients subtract it to isolate the network component.
        message.server_node = self.node
        message.residence_ms = self.sim.now - message.arrived_ms
        self.network.send(
            self.node, message.client_node, message.on_reply, message
        )
        self._next()


@dataclass
class _Access:
    """One in-flight quorum access from a client."""

    client_node: int
    units: int
    on_reply: object = None
    arrived_ms: float = 0.0
    server_node: int = -1
    residence_ms: float = 0.0


class _Client:
    """Closed-loop client sampling quorums from its strategy row."""

    def __init__(
        self,
        client_id: int,
        node: int,
        quorum_sampler,
        sim: Simulator,
        network: SimNetwork,
        servers: dict[int, _Server],
        rng: np.random.Generator,
        max_operations: int | None = None,
        telemetry=None,
    ):
        self.client_id = client_id
        self.telemetry = telemetry
        self.node = node
        self.sample_quorum = quorum_sampler
        self.sim = sim
        self.network = network
        self.servers = servers
        self.rng = rng
        self.max_operations = max_operations
        self.records: list[OperationRecord] = []
        self.running = False
        self.requests_sent = 0
        self._pending = 0
        self._issued_at = 0.0
        self._network_delay = 0.0

    def start(self, delay_ms: float) -> None:
        self.running = True
        self.sim.schedule(delay_ms, _Client._issue, self)

    def stop(self) -> None:
        self.running = False

    def _issue(self) -> None:
        if not self.running:
            return
        nodes, multiplicities = self.sample_quorum(self.rng)
        self._issued_at = self.sim.now
        self._network_delay = max(
            self.network.topology.distance(self.node, int(w))
            for w in nodes
        )
        self._pending = len(nodes)
        self.requests_sent += len(nodes)
        for w, count in zip(nodes, multiplicities):
            message = _Access(client_node=self.node, units=int(count))
            message.on_reply = self._on_reply
            self.network.send(
                self.node, int(w), self.servers[int(w)].on_request, message
            )

    def _on_reply(self, message) -> None:
        if not self.running:
            return
        if self.telemetry is not None:
            # Decomposed network RTT: the reply's observed round-trip
            # minus the residence time the server reported on it.
            self.telemetry(
                self.node,
                message.server_node,
                self.sim.now - self._issued_at - message.residence_ms,
            )
        self._pending -= 1
        if self._pending > 0:
            return
        self.records.append(
            OperationRecord(
                client_id=self.client_id,
                client_node=self.node,
                issued_at_ms=self._issued_at,
                completed_at_ms=self.sim.now,
                network_delay_ms=self._network_delay,
            )
        )
        if (
            self.max_operations is not None
            and len(self.records) >= self.max_operations
        ):
            # Open-loop: this client existed for a fixed number of
            # injected operations (usually one), not a closed loop.
            self.running = False
            return
        self._issue()


class _SummaryField:
    """The ``stats`` field: a summary computed on first read.

    Both backends store a zero-argument callable that computes the
    :class:`ResponseTimeStats`; the first read calls it and keeps the
    result. A finished summary may be passed instead and is kept as is.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._slot = "_" + name

    def __get__(
        self, obj: object, owner: type | None = None
    ) -> ResponseTimeStats:
        if obj is None:
            # No class-level default: the dataclass keeps the field required.
            raise AttributeError(self._slot[1:])
        value = obj.__dict__[self._slot]
        if callable(value):
            value = value()
            obj.__dict__[self._slot] = value
        return value

    def __set__(self, obj: object, value: object) -> None:
        obj.__dict__[self._slot] = value


@dataclass(frozen=True)
class GenericSimResult:
    """Outcome of a generic quorum-protocol simulation.

    The request counters obey **exact conservation**: every request a
    client issued was processed by a server or is still in flight (in the
    network, queued, or in service) at the horizon —
    ``requests_issued == requests_processed + requests_in_flight`` on
    both backends, to the unit. Neither backend derives
    ``requests_in_flight`` from the other two counters, so the identity
    checks the simulation rather than restating a definition.

    ``stats`` is summarized on first read, so a caller that needs only the
    counters or the telemetry never pays for the percentiles.
    ``operations_completed`` is counted eagerly, and a run with no
    operation completed after the warmup raises when it ends.
    """

    stats: ResponseTimeStats = _SummaryField()  # type: ignore[assignment]
    per_node_request_rate: np.ndarray
    server_utilizations: np.ndarray
    operations_completed: int
    requests_issued: int = 0
    requests_processed: int = 0
    requests_in_flight: int = 0
    telemetry: PairTelemetry | None = None


class GenericQuorumSimulation:
    """Simulate any placed quorum system under any access strategy.

    Parameters
    ----------
    placed:
        The placed quorum system (enumerable, or an implicit threshold
        system with a one-to-one placement).
    strategy:
        The strategy profile clients sample quorums from: an
        :class:`~repro.core.strategy.ExplicitStrategy` samples quorum
        indices per client row; a
        :class:`~repro.core.strategy.ThresholdBalancedStrategy` over a
        threshold system samples uniform random ``q``-subsets. The network
        is exact: a message takes ``d(v, w) / 2``.
    client_nodes:
        Topology nodes hosting one closed-loop client each (a node may
        appear multiple times). Defaults to one client on every node, the
        paper's client model.
    service_time_ms:
        Server processing time per request *unit* (element). A scalar
        applies uniformly; an ``(n_nodes,)`` array gives each node its
        own per-unit service time (heterogeneous capacity — the closed
        loop's load observability channel).
    collect_telemetry:
        Record per-(client node, server) reply aggregates — counts and
        decomposed network-RTT sums — and attach them to the result as a
        :class:`~repro.sim.metrics.PairTelemetry`. Supported on both
        backends; this is what the telemetry-driven controller consumes.
    arrivals:
        A :class:`~repro.sim.workload.PoissonArrivals` generator switching
        the run to **open-loop** injection: each sampled arrival time
        launches one independent operation (round-robin over
        ``client_nodes``) instead of the closed loop reissuing on
        completion. Open-loop arrivals keep coming while servers are
        saturated — the regime where queueing collapse is visible, which
        closed loops self-throttle away.
    backend:
        ``"events"`` (default) runs the reference discrete-event engine;
        ``"fluid"`` runs the vectorized backend in
        :mod:`repro.sim.fluid` — open-loop only, ~two orders of magnitude
        faster, distribution-equivalent (see that module's contract).
        A fluid simulation builds no event-engine simulator, network,
        servers, clients or quorum samplers: it has no ``sim``,
        ``network``, ``servers`` or ``clients`` attributes.
    """

    BACKENDS = ("events", "fluid")

    def __init__(
        self,
        placed: PlacedQuorumSystem,
        strategy: AccessStrategy,
        client_nodes: object = None,
        service_time_ms: float = 1.0,
        seed: int = 0,
        arrivals: PoissonArrivals | None = None,
        backend: str = "events",
        collect_telemetry: bool = False,
    ) -> None:
        service_arr = np.asarray(service_time_ms, dtype=np.float64)
        if service_arr.ndim == 0:
            uniform_service = True
            service_arr = np.full(placed.n_nodes, float(service_arr))
        elif service_arr.shape == (placed.n_nodes,):
            uniform_service = False
        else:
            raise SimulationError(
                "service_time_ms must be a scalar or an (n_nodes,) array; "
                f"got shape {service_arr.shape} for {placed.n_nodes} nodes"
            )
        if not np.all(np.isfinite(service_arr)) or np.any(service_arr < 0):
            raise SimulationError("service time must be non-negative")
        if backend not in self.BACKENDS:
            raise SimulationError(
                f"unknown simulation backend {backend!r}; choose from "
                f"{self.BACKENDS}"
            )
        if backend == "fluid" and arrivals is None:
            raise SimulationError(
                "the fluid backend is open-loop only; pass arrivals= "
                "(closed-loop feedback needs the event engine)"
            )
        if not isinstance(strategy, ExplicitStrategy):
            if not isinstance(placed.system, ThresholdQuorumSystem):
                raise SimulationError(
                    "implicit strategies require a threshold system"
                )
            if not isinstance(strategy, ThresholdBalancedStrategy):
                raise SimulationError(
                    f"unsupported strategy type {type(strategy).__name__!r} "
                    "for the generic simulator"
                )
        self.placed = placed
        self.strategy = strategy
        self.arrivals = arrivals
        self.backend = backend
        self.service_times = service_arr
        self.uniform_service = uniform_service
        self.service_time_ms = (
            float(service_arr[0]) if uniform_service else service_arr
        )
        self.seed = seed
        if client_nodes is None:
            client_nodes = np.arange(placed.n_nodes)
        self.client_nodes = np.asarray(client_nodes, dtype=np.intp)
        if self.client_nodes.size == 0:
            raise SimulationError("at least one client is required")
        check_nodes(placed.topology, self.client_nodes.tolist(), "client")

        self.collect_telemetry = collect_telemetry
        # Already sorted and distinct: the telemetry columns.
        self._telemetry_support = placed.placement.support_set
        if backend == "events":
            self._build_event_engine()

    def _build_event_engine(self) -> None:
        """Simulator, network, servers, samplers and closed-loop clients."""
        placed = self.placed
        self.sim = Simulator()
        self.network = SimNetwork(self.sim, placed.topology)
        self.servers = {
            int(w): _Server(
                int(w),
                float(self.service_times[int(w)]),
                self.sim,
                self.network,
            )
            for w in placed.placement.support_set
        }
        if self.collect_telemetry:
            n_pairs = (placed.n_nodes, self._telemetry_support.size)
            self._tel_counts = np.zeros(n_pairs, dtype=np.int64)
            self._tel_rtt = np.zeros(n_pairs, dtype=np.float64)
            self._tel_col = {
                int(w): j for j, w in enumerate(self._telemetry_support)
            }
        self._samplers = self._build_samplers()
        # Open-loop runs build their one-shot clients from the arrival
        # sequence at run() time (the horizon is known only there); only
        # the closed loop needs one persistent client per node up front.
        self.clients: list[_Client] = [] if self.arrivals is not None else [
            _Client(
                client_id=i,
                node=int(node),
                quorum_sampler=self._samplers[int(node)],
                sim=self.sim,
                network=self.network,
                servers=self.servers,
                rng=np.random.default_rng(self.seed * 69_941 + i),
                telemetry=(
                    self._record_pair if self.collect_telemetry else None
                ),
            )
            for i, node in enumerate(self.client_nodes)
        ]

    def _record_pair(self, client_node, server_node, rtt_sample_ms) -> None:
        col = self._tel_col[server_node]
        self._tel_counts[client_node, col] += 1
        self._tel_rtt[client_node, col] += rtt_sample_ms

    def _telemetry_result(self) -> PairTelemetry | None:
        if not self.collect_telemetry:
            return None
        support = self._telemetry_support
        return PairTelemetry(
            support_nodes=support.copy(),
            counts=self._tel_counts.copy(),
            rtt_sum_ms=self._tel_rtt.copy(),
            service_ms=self.service_times[support].copy(),
        )

    # ------------------------------------------------------------------
    # Quorum sampling
    # ------------------------------------------------------------------
    def _build_samplers(self):
        placed = self.placed
        strategy = self.strategy
        samplers = {}
        if isinstance(strategy, ExplicitStrategy):
            indptr, nodes, multiplicity = placed.quorum_node_table
            counts = [
                (nodes[a:b], multiplicity[a:b])
                for a, b in zip(indptr[:-1], indptr[1:])
            ]
            matrix = strategy.matrix
            m = matrix.shape[1]
            for v in set(self.client_nodes.tolist()):
                row = matrix[v]

                def sampler(rng, row=row, counts=counts, m=m):
                    i = int(rng.choice(m, p=row))
                    return counts[i]

                samplers[v] = sampler
            return samplers

        # A threshold system with the balanced strategy (checked at
        # construction).
        support = placed.placement.support_set
        n = placed.system.universe_size
        q = placed.system.quorum_size
        ones = np.ones(q, dtype=np.intp)
        for v in set(self.client_nodes.tolist()):

            def sampler(rng, support=support, n=n, q=q, ones=ones):
                picks = rng.choice(n, size=q, replace=False)
                return support[picks], ones

            samplers[v] = sampler
        return samplers

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _build_open_loop_clients(
        self, duration_ms: float
    ) -> tuple[list[_Client], np.ndarray]:
        """One single-operation client per Poisson arrival.

        Arrival times come from the generator's own seed; client ``i``
        runs at ``client_nodes[i % len(client_nodes)]`` with the same
        per-index rng formula as the closed loop, so a run is a pure
        function of (placement, strategy, arrivals, seed).
        """
        times = self.arrivals.sample_until(duration_ms)
        return [
            _Client(
                client_id=i,
                node=int(self.client_nodes[i % self.client_nodes.size]),
                quorum_sampler=self._samplers[
                    int(self.client_nodes[i % self.client_nodes.size])
                ],
                sim=self.sim,
                network=self.network,
                servers=self.servers,
                rng=np.random.default_rng(self.seed * 69_941 + i),
                max_operations=1,
                telemetry=(
                    self._record_pair if self.collect_telemetry else None
                ),
            )
            for i, _t in enumerate(times)
        ], times

    def run(
        self,
        duration_ms: float,
        warmup_ms: float = 0.0,
    ) -> GenericSimResult:
        """Run the workload (closed loop, or open loop with ``arrivals``)
        and summarize.

        Dispatches on the ``backend`` knob: the event engine executes the
        scenario message by message; the fluid backend computes the same
        open-loop scenario as array passes. A closed loop starts its
        clients at uniform random offsets within ``START_STAGGER_MS``; an
        open loop starts each operation at its arrival time.
        """
        if self.backend == "fluid":
            from repro.sim.fluid import run_fluid

            with obs.span("sim.fluid", duration_ms=float(duration_ms)):
                return run_fluid(self, duration_ms, warmup_ms=warmup_ms)
        if self.arrivals is not None:
            self.clients, times = self._build_open_loop_clients(duration_ms)
            for client, start_at in zip(self.clients, times):
                client.start(float(start_at))
        else:
            rng = np.random.default_rng(self.seed)
            for client in self.clients:
                client.start(float(rng.uniform(0.0, START_STAGGER_MS)))
        with obs.span("sim.events", duration_ms=float(duration_ms)):
            self.sim.run(until=duration_ms)
        for client in self.clients:
            client.stop()

        records: list[OperationRecord] = []
        for client in self.clients:
            records.extend(client.records)
        n_completed = sum(r.issued_at_ms >= warmup_ms for r in records)
        if n_completed == 0:
            raise SimulationError(
                "no operations completed after warmup; run longer or reduce "
                "the warmup window"
            )

        rates = np.zeros(self.placed.n_nodes)
        utils = np.zeros(len(self.servers))
        elapsed = self.sim.now
        for idx, (node, server) in enumerate(sorted(self.servers.items())):
            rates[node] = server.requests_processed / elapsed
            utils[idx] = min(1.0, server.busy_time_ms / elapsed)
        issued = sum(c.requests_sent for c in self.clients)
        obs.count("sim.requests", int(issued))
        processed = sum(
            s.requests_processed for s in self.servers.values()
        )
        # Counted where the requests are, not as issued - processed: on
        # the wire to a server, queued there, or in service.
        on_wire = sum(
            1
            for handler, _ in self.sim.pending_handlers()
            if getattr(handler, "__func__", None) is _Server.on_request
        )
        in_flight = on_wire + sum(
            len(s.queue) + s.busy for s in self.servers.values()
        )
        return GenericSimResult(
            stats=partial(summarize, records, warmup_ms=warmup_ms),
            per_node_request_rate=rates,
            server_utilizations=utils,
            operations_completed=n_completed,
            requests_issued=issued,
            requests_processed=processed,
            requests_in_flight=in_flight,
            telemetry=self._telemetry_result(),
        )
