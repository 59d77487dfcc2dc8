"""Scenario traces: typed topology-mutation events over a discrete timeline.

The paper evaluates placements on a *static* WAN snapshot and defers
dynamic conditions to future work (Section 1). A :class:`ScenarioTrace` is
the missing input: a timeline of ``n_epochs`` discrete epochs and a set of
typed, validated mutation events applied at epoch boundaries —

* :class:`RttDriftEvent` — per-node congestion factors; the effective RTT
  at epoch ``t`` is ``rtt[v, w] * (f_t[v] + f_t[w]) / 2`` (symmetric, zero
  diagonal preserved; the drifted matrix is taken as measured, never
  re-closed metrically);
* :class:`CapacityEvent` — a new per-node capacity vector (absolute, not a
  delta);
* :class:`ChurnEvent` — a node leaves or rejoins the system. Churn is the
  only event class that invalidates a placement, so it is the only one
  that forces re-placement during replay.

Folding the events produces one :class:`EpochState` per epoch — the pure,
deterministic input every downstream consumer (controllers, the clairvoyant
baseline, cache keys) derives from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import DynamicsError
from repro.network.graph import Topology

__all__ = [
    "CapacityEvent",
    "ChurnEvent",
    "EpochState",
    "RttDriftEvent",
    "ScenarioTrace",
    "effective_rtt",
]


def _as_node_vector(values: object, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DynamicsError(
            f"{name} must be a non-empty per-node vector, got shape "
            f"{arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DynamicsError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RttDriftEvent:
    """Sets per-node congestion factors from this epoch on.

    ``factors[v]`` scales every RTT touching node ``v`` (pairwise mean of
    the two endpoint factors); ``1.0`` everywhere is the base matrix.
    """

    epoch: int
    factors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "factors", _as_node_vector(self.factors, "rtt factors")
        )
        if np.any(self.factors <= 0):
            raise DynamicsError("rtt factors must be positive")


@dataclass(frozen=True, eq=False)
class CapacityEvent:
    """Sets the per-node capacity vector from this epoch on."""

    epoch: int
    capacities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "capacities",
            _as_node_vector(self.capacities, "capacities"),
        )
        if np.any(self.capacities < 0):
            raise DynamicsError("capacities must be non-negative")


@dataclass(frozen=True)
class ChurnEvent:
    """A node leaves (``up=False``) or rejoins (``up=True``) the system."""

    epoch: int
    node: int
    up: bool


#: Deterministic application order for same-epoch events: drift, then
#: capacities, then churn (rejoins before leaves — a heal composed with a
#: fresh failure at the same epoch never transiently empties the system —
#: sorted by node within each direction).
_EVENT_RANK = {RttDriftEvent: 0, CapacityEvent: 1, ChurnEvent: 2}

#: Any of the three world-change events (no shared base class).
DynamicsEvent = RttDriftEvent | CapacityEvent | ChurnEvent


def _sort_key(event: DynamicsEvent) -> tuple[int, int, int, int]:
    if isinstance(event, ChurnEvent):
        return (event.epoch, 2, 0 if event.up else 1, event.node)
    return (event.epoch, _EVENT_RANK[type(event)], 0, 0)


@dataclass(frozen=True, eq=False)
class EpochState:
    """The effective topology parameters during one epoch.

    ``rtt_factors``/``capacities`` cover the *full* node space (down nodes
    carry their last value, which nothing reads); ``up`` marks membership.
    The ``*_changed`` flags record whether this epoch's events moved the
    corresponding quantity — replay uses them to skip recomputation.
    """

    epoch: int
    rtt_factors: np.ndarray
    capacities: np.ndarray
    up: np.ndarray
    rtt_changed: bool
    caps_changed: bool
    churned: bool

    @property
    def up_nodes(self) -> np.ndarray:
        """Ids of the nodes that are members during this epoch."""
        return np.flatnonzero(self.up)


def effective_rtt(base_rtt: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """``rtt[v, w] * (factors[v] + factors[w]) / 2``.

    Symmetric whenever the base matrix is, and the zero diagonal is
    preserved. The result is *not* re-closed metrically: drifted matrices
    model congestion as measured, and measured RTT matrices routinely
    violate the triangle inequality.
    """
    pair = (factors[:, None] + factors[None, :]) / 2.0
    return base_rtt * pair


class ScenarioTrace:
    """A validated timeline of topology mutations over ``n_epochs`` epochs.

    Parameters
    ----------
    n_nodes:
        Size of the node space every event must cover.
    n_epochs:
        Number of discrete epochs; events carry epochs in
        ``[0, n_epochs)``.
    events:
        Any iterable of the three event types. Events are canonically
        sorted (epoch, then drift < capacity < churn; same-epoch churn
        applies rejoins before leaves, by node within each direction), so
        two traces built from the same events in any order fold
        identically.

    Validation is strict: duplicate drift/capacity events in one epoch are
    rejected (their application order would be ambiguous), churn must
    alternate per node (down requires up and vice versa), and at least one
    node must remain up at every epoch.
    """

    def __init__(
        self,
        n_nodes: int,
        n_epochs: int,
        events: Iterable[object] = (),
    ) -> None:
        if n_nodes < 1:
            raise DynamicsError("trace needs at least one node")
        if n_epochs < 1:
            raise DynamicsError("trace needs at least one epoch")
        self.n_nodes = int(n_nodes)
        self.n_epochs = int(n_epochs)
        self._events = tuple(sorted(events, key=_sort_key))
        self._validate()

    @property
    def events(self) -> tuple:
        """The events in canonical application order."""
        return self._events

    def _validate(self) -> None:
        seen_scalar: set[tuple[int, type]] = set()
        up = np.ones(self.n_nodes, dtype=bool)
        for event in self._events:
            if not 0 <= event.epoch < self.n_epochs:
                raise DynamicsError(
                    f"event epoch {event.epoch} outside "
                    f"[0, {self.n_epochs})"
                )
            if isinstance(event, (RttDriftEvent, CapacityEvent)):
                vector = (
                    event.factors
                    if isinstance(event, RttDriftEvent)
                    else event.capacities
                )
                if vector.shape != (self.n_nodes,):
                    raise DynamicsError(
                        f"event at epoch {event.epoch} covers "
                        f"{vector.size} nodes, trace has {self.n_nodes}"
                    )
                key = (event.epoch, type(event))
                if key in seen_scalar:
                    raise DynamicsError(
                        f"duplicate {type(event).__name__} at epoch "
                        f"{event.epoch}: application order would be "
                        "ambiguous"
                    )
                seen_scalar.add(key)
            elif isinstance(event, ChurnEvent):
                if not 0 <= event.node < self.n_nodes:
                    raise DynamicsError(
                        f"churn references node {event.node} outside the "
                        f"{self.n_nodes}-node space"
                    )
                if up[event.node] == event.up:
                    state = "up" if event.up else "down"
                    raise DynamicsError(
                        f"churn at epoch {event.epoch} toggles node "
                        f"{event.node} {state} but it is already {state}"
                    )
                up[event.node] = event.up
                if not up.any():
                    raise DynamicsError(
                        f"epoch {event.epoch} leaves no node up"
                    )
            else:
                raise DynamicsError(
                    f"unknown event type {type(event).__name__!r}"
                )

    def states(self, topology: Topology) -> list[EpochState]:
        """Fold the events into one :class:`EpochState` per epoch.

        The base state (all factors 1, the topology's capacities, every
        node up) is mutated by each epoch's events *before* that epoch is
        emitted; epoch 0 is always flagged fully changed so consumers
        initialize unconditionally.
        """
        if topology.n_nodes != self.n_nodes:
            raise DynamicsError(
                f"trace covers {self.n_nodes} nodes, topology has "
                f"{topology.n_nodes}"
            )
        factors = np.ones(self.n_nodes)
        caps = topology.capacities.copy()
        up = np.ones(self.n_nodes, dtype=bool)
        by_epoch: dict[int, list] = {}
        for event in self._events:
            by_epoch.setdefault(event.epoch, []).append(event)

        states: list[EpochState] = []
        for t in range(self.n_epochs):
            rtt_changed = caps_changed = churned = t == 0
            for event in by_epoch.get(t, ()):
                if isinstance(event, RttDriftEvent):
                    if not np.array_equal(event.factors, factors):
                        factors = event.factors.copy()
                        rtt_changed = True
                elif isinstance(event, CapacityEvent):
                    if not np.array_equal(event.capacities, caps):
                        caps = event.capacities.copy()
                        caps_changed = True
                else:
                    up = up.copy()
                    up[event.node] = event.up
                    churned = True
            snapshot_f = factors.copy()
            snapshot_c = caps.copy()
            snapshot_u = up.copy()
            for arr in (snapshot_f, snapshot_c, snapshot_u):
                arr.setflags(write=False)
            states.append(
                EpochState(
                    epoch=t,
                    rtt_factors=snapshot_f,
                    capacities=snapshot_c,
                    up=snapshot_u,
                    rtt_changed=rtt_changed,
                    caps_changed=caps_changed,
                    churned=churned,
                )
            )
        return states

    def segments(self) -> list[tuple[int, int]]:
        """Half-open epoch ranges between churn boundaries.

        Within a segment the member set — and therefore the placement — is
        fixed; RTT and capacity events inside it are incremental work.
        """
        boundaries = sorted(
            {0}
            | {
                e.epoch
                for e in self._events
                if isinstance(e, ChurnEvent) and e.epoch > 0
            }
        )
        boundaries.append(self.n_epochs)
        return [
            (start, end)
            for start, end in zip(boundaries, boundaries[1:])
            if end > start
        ]

    def __repr__(self) -> str:
        return (
            f"ScenarioTrace(n_nodes={self.n_nodes}, "
            f"n_epochs={self.n_epochs}, events={len(self._events)})"
        )
