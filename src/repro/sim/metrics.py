"""Response-time metrics for simulation runs.

Each completed operation contributes one :class:`OperationRecord`; the
summary drops a configurable warmup prefix (queues need time to reach
steady state) and reports the statistics the paper plots: mean response
time and mean network delay, plus dispersion measures for sanity checks.

Two entry points produce the same :class:`ResponseTimeStats`:

* :func:`summarize` consumes a list of records (the event engine's
  natural output);
* :func:`summarize_arrays` is the **columnar** path — plain numpy arrays
  in, stats out, no per-operation Python objects. The fluid backend
  summarizes a million operations through it without ever materializing
  a million ``OperationRecord`` instances; :func:`summarize` is now a
  thin wrapper that gathers its records into arrays and delegates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "OperationRecord",
    "PairTelemetry",
    "ResponseTimeStats",
    "summarize",
    "summarize_arrays",
]


@dataclass(frozen=True)
class PairTelemetry:
    """Per-(client node, server) measurement aggregates from one run.

    What a production controller can actually observe: for every reply a
    client received, the server reports its residence time (queueing +
    service), and the client attributes the remainder of the reply's
    round-trip to the network. Aggregated here as per-pair counts and
    sums so a million replies cost two ``(n_nodes, S)`` arrays, where
    ``S = len(support_nodes)``.

    ``rtt_sum_ms[v, j]`` sums the *decomposed network* round-trip samples
    (observed response minus server-reported residence) of replies from
    ``support_nodes[j]`` to clients at node ``v``; ``counts[v, j]`` is how
    many replies contributed. ``service_ms[j]`` is the per-unit service
    time server ``j`` reports — the load/capacity side channel.
    """

    support_nodes: np.ndarray
    counts: np.ndarray
    rtt_sum_ms: np.ndarray
    service_ms: np.ndarray

    @property
    def replies(self) -> np.ndarray:
        """Replies observed per server, ``(S,)``."""
        return self.counts.sum(axis=0)

    def mean_rtt(self) -> np.ndarray:
        """Per-pair mean network RTT sample; ``nan`` where no replies."""
        counts = self.counts
        return np.where(
            counts > 0, self.rtt_sum_ms / np.maximum(counts, 1), np.nan
        )


@dataclass(frozen=True)
class OperationRecord:
    """One completed quorum operation.

    ``network_delay_ms`` is the operation's pure network component (the max
    RTT to the accessed quorum); ``response_time_ms`` additionally includes
    queueing and service time at the servers.
    """

    client_id: int
    client_node: int
    issued_at_ms: float
    completed_at_ms: float
    network_delay_ms: float

    @property
    def response_time_ms(self) -> float:
        return self.completed_at_ms - self.issued_at_ms

    @property
    def queueing_delay_ms(self) -> float:
        """Response time beyond the network component (queueing + service)."""
        return self.response_time_ms - self.network_delay_ms


@dataclass(frozen=True)
class ResponseTimeStats:
    """Aggregate statistics over completed operations."""

    n_operations: int
    mean_response_ms: float
    mean_network_delay_ms: float
    median_response_ms: float
    p95_response_ms: float
    std_response_ms: float
    p99_response_ms: float = float("nan")

    @property
    def mean_processing_ms(self) -> float:
        """Mean queueing+service component (the paper's "processing delay")."""
        return self.mean_response_ms - self.mean_network_delay_ms

    @property
    def p50_response_ms(self) -> float:
        """Alias for the median, in the pXX naming used by the sweeps."""
        return self.median_response_ms

    def percentiles(self) -> dict[str, float]:
        """The p50/p95/p99 triple, keyed for figure metadata."""
        return {
            "p50_response_ms": self.p50_response_ms,
            "p95_response_ms": self.p95_response_ms,
            "p99_response_ms": self.p99_response_ms,
        }


def summarize_arrays(
    issued_at_ms: np.ndarray,
    completed_at_ms: np.ndarray,
    network_delay_ms: np.ndarray,
    client_ids: np.ndarray | None = None,
    warmup_ms: float = 0.0,
) -> ResponseTimeStats:
    """Columnar :func:`summarize`: arrays of per-operation columns in,
    :class:`ResponseTimeStats` out.

    ``client_ids`` groups operations into clients for the per-client mean
    (the paper's ``avg_v Delta_f(v)`` weighting); ``None`` means every
    operation is its own client — the open-loop convention, where the two
    weightings coincide — in which case the means are plain per-operation
    means.
    """
    issued = np.asarray(issued_at_ms, dtype=np.float64)
    completed = np.asarray(completed_at_ms, dtype=np.float64)
    network = np.asarray(network_delay_ms, dtype=np.float64)
    keep = issued >= warmup_ms
    if not np.any(keep):
        raise SimulationError(
            "no operations completed after warmup; run longer or reduce "
            "the warmup window"
        )
    response = completed[keep] - issued[keep]
    network = network[keep]

    if client_ids is not None:
        ids = np.asarray(client_ids)[keep]
        _, inverse = np.unique(ids, return_inverse=True)
        counts = np.bincount(inverse)
        mean_response = float(
            (np.bincount(inverse, weights=response) / counts).mean()
        )
        mean_network = float(
            (np.bincount(inverse, weights=network) / counts).mean()
        )
    else:
        mean_response = float(response.mean())
        mean_network = float(network.mean())

    p50, p95, p99 = np.percentile(response, [50.0, 95.0, 99.0])
    return ResponseTimeStats(
        n_operations=int(response.size),
        mean_response_ms=mean_response,
        mean_network_delay_ms=mean_network,
        median_response_ms=float(p50),
        p95_response_ms=float(p95),
        std_response_ms=float(response.std()),
        p99_response_ms=float(p99),
    )


def summarize(
    records: list[OperationRecord],
    warmup_ms: float = 0.0,
) -> ResponseTimeStats:
    """Summarize records completed after the warmup cutoff.

    The means are **averages of per-client means**, matching the paper's
    objective ``avg_{v} Delta_f(v)``: in a closed loop, clients near the
    quorums complete more operations, so a raw per-operation mean would
    over-weight them. Median/p95/p99/std are per-operation (dispersion of
    individual requests).
    """
    if not records:
        raise SimulationError(
            "no operations completed after warmup; run longer or reduce "
            "the warmup window"
        )
    return summarize_arrays(
        issued_at_ms=np.array([r.issued_at_ms for r in records]),
        completed_at_ms=np.array([r.completed_at_ms for r in records]),
        network_delay_ms=np.array([r.network_delay_ms for r in records]),
        client_ids=np.array([r.client_id for r in records]),
        warmup_ms=warmup_ms,
    )
