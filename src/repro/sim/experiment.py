"""The Section-3 Q/U experiment harness.

Reproduces the paper's Modelnet methodology:

* ``n = 5t + 1`` servers with quorums of ``4t + 1``;
* servers placed by the algorithm that "approximately minimizes the average
  network delay that each client experiences when accessing a quorum
  uniformly at random" (the Majority ball placement with best-``v0``
  search);
* 10 client sites "for which the average network delay to the server
  placement approximates the average network delay from all the nodes of
  the graph" — chosen as the sites whose balanced expected delay is closest
  to the graph-wide average;
* ``c`` closed-loop clients per site, uniform random quorums, 1 ms service
  time per request, each client writing its own object over an exact
  emulated WAN;
* measures: average response time and average network delay over clients.

The client-site count (:data:`N_CLIENT_SITES`) and the service time
(:data:`SERVICE_TIME_MS`) are the paper's, fixed for every run; they stay
in :meth:`QUExperimentConfig.fingerprint_components` so a cached cell
names them.
"""

from __future__ import annotations

# cache-key-input: QUExperimentConfig.fingerprint_components feeds the
# qu_simulation_cell cache key; field changes here must keep it complete
# (rule RL003) and warrant a CACHE_SCHEMA_VERSION review.

from dataclasses import dataclass

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import evaluate
from repro.core.strategy import ThresholdBalancedStrategy
from repro.errors import SimulationError
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.threshold import MajorityKind, majority
from repro.sim.metrics import ResponseTimeStats, summarize
from repro.qu.service import QUService

__all__ = [
    "N_CLIENT_SITES",
    "SERVICE_TIME_MS",
    "QUExperimentConfig",
    "QUExperimentResult",
    "select_client_sites",
    "build_qu_service",
    "run_qu_experiment",
]

#: Client sites of every run: the paper's 10 sites whose average network
#: delay to the server placement approximates the graph-wide average.
N_CLIENT_SITES = 10
#: Per-request server processing time (ms): the paper's 1 ms.
SERVICE_TIME_MS = 1.0


def select_client_sites(topology: Topology, placed) -> np.ndarray:
    """Client sites whose balanced network delay best matches the global mean.

    ``placed`` is a placed threshold system; per-node expected delays under
    the balanced strategy are computed exactly, and the
    :data:`N_CLIENT_SITES` nodes whose delay is closest to the all-nodes
    average are returned (ties to lower node id).
    """
    result = evaluate(placed, ThresholdBalancedStrategy(), alpha=0.0)
    per_node = result.per_client_network_delay
    target = per_node.mean()
    gap = np.abs(per_node - target)
    order = np.lexsort((np.arange(topology.n_nodes), gap))
    return np.sort(order[:N_CLIENT_SITES])


@dataclass(frozen=True)
class QUExperimentConfig:
    """Parameters of one Q/U simulation run.

    Defaults mirror the paper: ``t`` faults => 5t+1 servers and 4t+1
    quorums. ``clients_per_site`` is the paper's ``c`` in 1..10, at each
    of :data:`N_CLIENT_SITES` sites.
    """

    t: int = 1
    clients_per_site: int = 1
    duration_ms: float = 4000.0
    warmup_ms: float = 500.0
    seed: int = 1

    @property
    def n_servers(self) -> int:
        return 5 * self.t + 1

    @property
    def quorum_size(self) -> int:
        return 4 * self.t + 1

    @property
    def n_clients(self) -> int:
        return N_CLIENT_SITES * self.clients_per_site

    def fingerprint_components(self) -> dict:
        """Content components for cache keys (see
        :func:`repro.runtime.cache.content_key`).

        Every field is hashed — rule RL003 enforces it stays that way —
        and so are the module constants :data:`N_CLIENT_SITES` and
        :data:`SERVICE_TIME_MS`, so editing either invalidates cached
        cells instead of silently serving stale ones.
        """
        return {
            "t": int(self.t),
            "clients_per_site": int(self.clients_per_site),
            "n_client_sites": N_CLIENT_SITES,
            "service_time_ms": SERVICE_TIME_MS,
            "duration_ms": float(self.duration_ms),
            "warmup_ms": float(self.warmup_ms),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class QUExperimentResult:
    """Measured and analytic outcomes of one run."""

    config: QUExperimentConfig
    stats: ResponseTimeStats
    analytic_network_delay_ms: float
    server_nodes: np.ndarray
    client_sites: np.ndarray
    mean_server_utilization: float
    operations_completed: int

    @property
    def mean_response_ms(self) -> float:
        return self.stats.mean_response_ms

    @property
    def mean_network_delay_ms(self) -> float:
        return self.stats.mean_network_delay_ms


def build_qu_service(
    topology: Topology, config: QUExperimentConfig
) -> tuple[QUService, PlacedQuorumSystem, np.ndarray]:
    """The service one run simulates, built but not started.

    Places ``5t + 1`` servers, selects the client sites and adds
    ``clients_per_site`` clients at each. Returns the service, the placed
    system and the client sites.
    """
    system = majority(MajorityKind.QU, config.t)
    if system.universe_size > topology.n_nodes:
        raise SimulationError(
            f"t={config.t} needs {system.universe_size} nodes; topology "
            f"has {topology.n_nodes}"
        )
    placed = best_placement(topology, system).placed
    client_sites = select_client_sites(topology, placed)
    service = QUService(
        topology,
        placed.placement.assignment,
        quorum_size=config.quorum_size,
        service_time_ms=SERVICE_TIME_MS,
        seed=config.seed,
    )
    for site in client_sites:
        for _ in range(config.clients_per_site):
            service.add_client(int(site))
    return service, placed, client_sites


def run_qu_experiment(
    topology: Topology, config: QUExperimentConfig
) -> QUExperimentResult:
    """Place servers, select client sites, simulate, and summarize."""
    service, placed, client_sites = build_qu_service(topology, config)
    analytic = evaluate(
        placed, ThresholdBalancedStrategy(), alpha=0.0, clients=client_sites
    ).avg_network_delay
    service.run(duration_ms=config.duration_ms)

    stats = summarize(service.all_records(), warmup_ms=config.warmup_ms)
    return QUExperimentResult(
        config=config,
        stats=stats,
        analytic_network_delay_ms=analytic,
        server_nodes=placed.placement.assignment,
        client_sites=client_sites,
        mean_server_utilization=float(service.server_utilizations().mean()),
        operations_completed=stats.n_operations,
    )
