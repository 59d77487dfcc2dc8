"""Telemetry estimation for closed-loop adaptation.

The oracle replay hands the :class:`~repro.dynamics.controller.\
AdaptiveController` the scenario's true drifted RTTs and capacities.
Production controllers never see those: they see what their clients
measured — King-style latency estimates assembled from observed response
times, with noise, staleness, and whatever bias the load imposes. This
module is that measurement plane:

* :func:`probe_epoch` runs one epoch's placed system under one or more
  strategies through :class:`~repro.sim.generic.GenericQuorumSimulation`
  on the fluid backend (cheap enough to probe every epoch; there is no
  other probe path) with ``collect_telemetry=True`` and returns each
  strategy's per-(client, server)
  :class:`~repro.sim.metrics.PairTelemetry` aggregates. All strategies
  share one pass: the same arrivals and quorum draws, the probe each
  would make alone. Servers run at ``PROBE_SERVICE_TIME_MS / capacity``,
  so per-node capacity is observable from the service times their
  replies report.
* :class:`TelemetryEstimator` folds each epoch's sample into
  exponentially-weighted RTT and capacity estimates (weight :data:`GAIN`).
  Per-pair measurement noise is seeded and shrinks as
  ``1/sqrt(samples)``; unobserved pairs age (staleness), keeping their
  last estimate.
* :class:`TelemetryConfig` freezes the noise level and the seed and
  fingerprints them, with the probe constants, for the replay driver's
  content cache keys.

The closed loop then feeds *estimates* — never scenario events — into
the policy's ``should_reoptimize`` and the warm LP's
``update_delays``/RHS re-solve paths, while the replay still scores the
strategies it produces under the **true** drifted delays. The gap
between the two is the estimation-error series; the gap to the oracle
clairvoyant re-optimizer is regret under realistic signal quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.strategy import ExplicitStrategy
from repro.errors import DynamicsError, SimulationError
from repro.network.graph import Topology
from repro.sim.generic import GenericQuorumSimulation, GenericSimResult
from repro.sim.metrics import PairTelemetry
from repro.sim.workload import PoissonArrivals

__all__ = [
    "GAIN",
    "PROBE_BACKEND",
    "PROBE_MS",
    "PROBE_RATE_PER_MS",
    "PROBE_SERVICE_TIME_MS",
    "TelemetryConfig",
    "TelemetryEstimator",
    "probe_epoch",
]

#: Capacities below this are clamped before inverting into service times
#: (a zero-capacity node would mean an infinite per-unit service time).
_MIN_CAPACITY = 1e-9

#: Offset separating the probe's arrival-stream seed from its quorum
#: sampling seed (both derive from the per-epoch probe seed).
_ARRIVAL_SEED_OFFSET = 987_631

#: Simulator backend every probe runs on: the fluid engine takes the
#: open-loop Poisson probe workload at array cost.
PROBE_BACKEND = "fluid"

#: EWMA weight of each new measurement (1.0 would trust only the latest
#: epoch).
GAIN = 0.5
#: Open-loop Poisson arrival rate of the probe (operations per ms).
PROBE_RATE_PER_MS = 0.5
#: Simulated milliseconds each epoch's probe runs.
PROBE_MS = 500.0
#: Per-unit service time of a unit-capacity server during a probe (node
#: service = base / capacity, which is what makes capacity observable).
PROBE_SERVICE_TIME_MS = 1.0


@dataclass(frozen=True)
class TelemetryConfig:
    """Settings of the closed-loop measurement plane.

    ``noise`` is the relative standard deviation of the per-pair
    measurement error applied to each epoch's mean RTT sample, scaled by
    ``1/sqrt(samples)`` — many replies average the error down, exactly
    like real ping aggregation. All randomness — the probe simulation and
    the measurement noise — derives from ``seed``. The probe itself runs
    at the module constants :data:`PROBE_RATE_PER_MS`, :data:`PROBE_MS`
    and :data:`PROBE_SERVICE_TIME_MS`, and estimates blend in with weight
    :data:`GAIN`.
    """

    noise: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise DynamicsError(
                f"telemetry noise must be >= 0 and finite, got {self.noise}"
            )
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise DynamicsError(
                f"telemetry seed must be a non-negative int, got {self.seed}"
            )

    def fingerprint_components(self) -> dict:
        """Content components for the replay driver's cache keys: the
        fields and the probe constants."""
        return {
            "noise": float(self.noise),
            "gain": GAIN,
            "rate_per_ms": PROBE_RATE_PER_MS,
            "probe_ms": PROBE_MS,
            "service_time_ms": PROBE_SERVICE_TIME_MS,
            "seed": int(self.seed),
        }


def probe_epoch(
    placed: PlacedQuorumSystem,
    strategies: tuple[ExplicitStrategy, ...],
    rtt: np.ndarray,
    capacities: np.ndarray,
    seed: int,
) -> tuple[PairTelemetry, ...]:
    """Measure one epoch: simulate each strategy, return its telemetry.

    The probe moves the placed system onto the epoch's *true* drifted
    ``rtt`` and ``capacities`` (that is the world the probe traffic
    traverses — the controller only ever sees the returned samples), runs
    an open-loop Poisson workload sampling quorums from each strategy,
    and returns one sample of per-(client node, server) reply aggregates
    per strategy, in order. Nodes serve at ``PROBE_SERVICE_TIME_MS /
    capacity`` per unit, so each reply's reported service time carries
    the capacity signal. The strategies run in one fluid pass over the
    same arrivals and quorum draws, and each sample is byte-identical to
    a probe of that strategy alone.

    ``rtt`` is taken as is (:meth:`Topology.adopt`), so it must be a
    float64 matrix that is exactly symmetric with a zero diagonal, as
    :func:`~repro.dynamics.events.effective_rtt` of a topology's matrix
    is; it is marked read-only.
    """
    caps = np.maximum(
        np.asarray(capacities, dtype=np.float64), _MIN_CAPACITY
    )
    # The quorum-node table is built once on the segment's placed system;
    # every epoch's drifted copy carries it instead of rebuilding it.
    placed.quorum_node_table
    probe_placed = placed.with_topology(
        Topology.adopt(rtt, placed.topology.names, caps)
    )
    sim = GenericQuorumSimulation(
        probe_placed,
        tuple(strategies),
        service_time_ms=PROBE_SERVICE_TIME_MS / caps,
        seed=seed,
        arrivals=PoissonArrivals(
            rate_per_ms=PROBE_RATE_PER_MS,
            seed=seed + _ARRIVAL_SEED_OFFSET,
        ),
        backend=PROBE_BACKEND,
        collect_telemetry=True,
    )
    try:
        results = cast(
            tuple[GenericSimResult, ...], sim.run(duration_ms=PROBE_MS)
        )
    except SimulationError as exc:
        raise DynamicsError(
            "telemetry probe produced no completed operations "
            f"(probe_ms={PROBE_MS}, rate_per_ms={PROBE_RATE_PER_MS}): "
            "the quorum round-trips outlast the probe window"
        ) from exc
    return tuple(cast(PairTelemetry, out.telemetry) for out in results)


class TelemetryEstimator:
    """Exponentially-weighted RTT/capacity estimates with staleness.

    Priors are the base topology (undrifted RTTs, nominal capacities) —
    what a controller knows at deployment. Each observed epoch blends
    the sample's per-pair mean RTT and per-server implied capacity
    toward the measurement with weight :data:`GAIN`; pairs without
    replies keep their last estimate and age by one epoch. Estimates are
    directional (client ``v`` measuring server ``w`` updates ``[v, w]``
    only), matching what each client can actually observe.
    """

    def __init__(
        self, placed: PlacedQuorumSystem, config: TelemetryConfig
    ) -> None:
        topology = placed.topology
        self.config = config
        self.support = np.unique(
            np.asarray(placed.placement.support_set, dtype=np.intp)
        )
        self._rtt = np.array(topology.rtt, dtype=np.float64, copy=True)
        self._caps = np.array(
            topology.capacities, dtype=np.float64, copy=True
        )
        self._pair_age = np.zeros(
            (topology.n_nodes, self.support.size), dtype=np.float64
        )
        self._cap_age = np.zeros(self.support.size, dtype=np.float64)
        self.epochs_observed = 0

    @property
    def rtt_estimate(self) -> np.ndarray:
        """Current full ``(n, n)`` RTT estimate (a defensive copy)."""
        return self._rtt.copy()

    @property
    def capacity_estimate(self) -> np.ndarray:
        """Current per-node capacity estimate (a defensive copy)."""
        return self._caps.copy()

    @property
    def mean_staleness(self) -> float:
        """Mean age, in epochs, of the (client, server) RTT estimates."""
        return float(self._pair_age.mean())

    def observe(
        self, sample: PairTelemetry, rng: np.random.Generator
    ) -> None:
        """Fold one epoch's telemetry into the estimates.

        ``rng`` supplies the seeded measurement noise; it is consumed in
        a fixed order (RTT draws, then capacity draws), so the whole
        estimation path is a pure function of (samples, seed).
        """
        if not np.array_equal(sample.support_nodes, self.support):
            raise DynamicsError(
                "telemetry sample covers different servers than the "
                "estimator was built for"
            )
        cfg = self.config
        self.epochs_observed += 1
        self._pair_age += 1.0
        self._cap_age += 1.0

        counts = sample.counts
        observed = counts > 0
        if observed.any():
            seen = counts[observed].astype(np.float64)
            mean = sample.rtt_sum_ms[observed] / seen
            if cfg.noise > 0:
                mean = mean * (
                    1.0
                    + cfg.noise
                    * rng.standard_normal(mean.size)
                    / np.sqrt(seen)
                )
                np.maximum(mean, 0.0, out=mean)
            rows, cols = np.nonzero(observed)
            nodes = self.support[cols]
            self._rtt[rows, nodes] = (
                (1.0 - GAIN) * self._rtt[rows, nodes] + GAIN * mean
            )
            self._pair_age[observed] = 0.0

        replies = sample.replies
        has = replies > 0
        if has.any():
            implied = PROBE_SERVICE_TIME_MS / np.maximum(
                sample.service_ms[has], 1e-12
            )
            if cfg.noise > 0:
                implied = implied * (
                    1.0
                    + cfg.noise
                    * rng.standard_normal(implied.size)
                    / np.sqrt(replies[has].astype(np.float64))
                )
            np.maximum(implied, _MIN_CAPACITY, out=implied)
            nodes = self.support[has]
            self._caps[nodes] = (
                (1.0 - GAIN) * self._caps[nodes] + GAIN * implied
            )
            self._cap_age[has] = 0.0
