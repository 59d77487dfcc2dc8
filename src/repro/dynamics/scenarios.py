"""Generators for standard dynamic-topology scenarios.

Each generator is a pure function of its arguments (all randomness flows
through a seeded :class:`numpy.random.Generator`), returning a
:class:`~repro.dynamics.events.ScenarioTrace` ready for
:func:`~repro.dynamics.replay.replay_spec`:

* :func:`diurnal_scenario` — RTT oscillation: every node gets a congestion
  factor ``1 + amplitude * sin(2 pi (t / period + phase_v))`` with a
  seeded per-node phase, modelling day/night load waves sweeping across
  regions.
* :func:`flash_crowd_scenario` — capacity crunch: a seeded subset of nodes
  has its capacity cut to ``depth`` for half of each wave's share of the
  timeline, then restored (optionally in several waves).
* :func:`partition_heal_scenario` — regional churn: the nodes closest to a
  seeded center leave together a third of the way in and rejoin two
  thirds in, the partition-and-heal pattern that forces re-placement.

``combine`` overlays traces (e.g. diurnal drift + a flash crowd) into one
event list; overlaps that would be ambiguous are rejected by trace
validation, churn alternation included.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.events import (
    CapacityEvent,
    ChurnEvent,
    RttDriftEvent,
    ScenarioTrace,
)
from repro.errors import DynamicsError
from repro.network.graph import Topology

__all__ = [
    "combine",
    "diurnal_scenario",
    "flash_crowd_scenario",
    "mixed_scenario",
    "partition_heal_scenario",
]


def diurnal_scenario(
    topology: Topology,
    n_epochs: int,
    seed: int = 0,
    amplitude: float = 0.3,
    period: int = 12,
) -> ScenarioTrace:
    """Sinusoidal RTT drift with a seeded per-node phase.

    Epoch ``t`` sets node factors
    ``1 + amplitude * sin(2 pi (t / period + phase_v))`` — every node's
    congestion oscillates with the same period but a different phase, so
    the *relative* attractiveness of regions keeps shifting (a global
    scale factor alone would leave the optimal strategy unchanged).
    """
    if not 0.0 <= amplitude < 1.0:
        raise DynamicsError(
            f"amplitude must lie in [0, 1) to keep factors positive, "
            f"got {amplitude}"
        )
    if period < 2:
        raise DynamicsError("period must span at least 2 epochs")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 1.0, size=topology.n_nodes)
    events = []
    for t in range(1, n_epochs):
        factors = 1.0 + amplitude * np.sin(
            2.0 * np.pi * (t / period + phases)
        )
        events.append(RttDriftEvent(epoch=t, factors=factors))
    return ScenarioTrace(topology.n_nodes, n_epochs, events)


def flash_crowd_scenario(
    topology: Topology,
    n_epochs: int,
    seed: int = 0,
    fraction: float = 0.3,
    depth: float = 0.5,
    waves: int = 1,
) -> ScenarioTrace:
    """Capacity crunch: a seeded node subset loses capacity, then recovers.

    The ``waves`` are spread evenly over the timeline from epoch 1, one
    every ``stride = max(2, n_epochs // waves)`` epochs. Each picks
    ``fraction`` of the nodes (seeded, without replacement), multiplies
    their capacity by ``depth`` for ``max(1, stride // 2)`` epochs, and
    restores the base vector afterwards, before the next wave begins.
    """
    if not 0.0 < fraction <= 1.0:
        raise DynamicsError(f"fraction must lie in (0, 1], got {fraction}")
    if not 0.0 <= depth < 1.0:
        raise DynamicsError(
            f"depth must lie in [0, 1) — 1 would be a no-op, got {depth}"
        )
    if waves < 1:
        raise DynamicsError("need at least one wave")
    n = topology.n_nodes
    n_hit = max(1, int(round(fraction * n)))
    base = topology.capacities
    stride = max(2, n_epochs // waves)
    length = max(1, stride // 2)
    rng = np.random.default_rng(seed)

    events = []
    for wave in range(waves):
        begin = 1 + wave * stride
        end = min(begin + length, n_epochs)
        if begin >= n_epochs or end <= begin:
            break
        hit = rng.choice(n, size=n_hit, replace=False)
        crunched = base.copy()
        crunched[hit] = base[hit] * depth
        events.append(CapacityEvent(epoch=begin, capacities=crunched))
        if end < n_epochs:
            events.append(CapacityEvent(epoch=end, capacities=base.copy()))
    return ScenarioTrace(n, n_epochs, events)


def partition_heal_scenario(
    topology: Topology,
    n_epochs: int,
    seed: int = 0,
    region_size: int = 5,
) -> ScenarioTrace:
    """A seeded regional cluster leaves mid-trace and rejoins later.

    The region is the ``region_size`` nodes closest (by RTT) to a seeded
    center node — a geographic partition, not a random sample. Leaves land
    one third in (``start = max(1, n_epochs // 3)``), rejoins two thirds
    in (``heal = max(start + 1, 2 * n_epochs // 3)``); both rounds of
    churn force re-placement.
    """
    n = topology.n_nodes
    if not 1 <= region_size < n:
        raise DynamicsError(
            f"region_size must lie in [1, {n}), got {region_size}"
        )
    start = max(1, n_epochs // 3)
    heal = max(start + 1, (2 * n_epochs) // 3)
    if heal > n_epochs:
        raise DynamicsError(
            f"need 0 < start < heal <= n_epochs, got start={start}, "
            f"heal={heal}, n_epochs={n_epochs}"
        )
    rng = np.random.default_rng(seed)
    center = int(rng.integers(n))
    region = topology.ball(center, region_size)

    events: list = [
        ChurnEvent(epoch=start, node=int(node), up=False) for node in region
    ]
    if heal < n_epochs:
        events.extend(
            ChurnEvent(epoch=heal, node=int(node), up=True)
            for node in region
        )
    return ScenarioTrace(n, n_epochs, events)


def mixed_scenario(
    topology: Topology,
    n_epochs: int,
    seed: int = 7,
) -> ScenarioTrace:
    """The canonical everything-at-once scenario: diurnal RTT drift plus
    a flash-crowd capacity crunch plus a partition-and-heal of the
    ``n // 8`` nodes around a seeded center.

    This is the single definition behind both ``python -m repro dynamics
    --scenario mixed`` and the ``fig_dyn`` figure, so the two entry points
    replay identical timelines for identical (epochs, seed).
    """
    return combine(
        diurnal_scenario(
            topology, n_epochs, seed=seed, amplitude=0.35,
            period=max(4, n_epochs // 2),
        ),
        flash_crowd_scenario(
            topology, n_epochs, seed=seed + 1, fraction=0.3, depth=0.6,
        ),
        partition_heal_scenario(
            topology, n_epochs, seed=seed + 2,
            region_size=max(1, topology.n_nodes // 8),
        ),
    )


def combine(*traces: ScenarioTrace) -> ScenarioTrace:
    """Overlay several traces over one timeline into a single trace.

    All traces must agree on the node space and epoch count; the merged
    event list is re-validated, so compositions that would double-toggle a
    node's membership or double-write a vector in one epoch are rejected
    rather than silently reordered.
    """
    if not traces:
        raise DynamicsError("combine needs at least one trace")
    head = traces[0]
    for trace in traces[1:]:
        if trace.n_nodes != head.n_nodes or trace.n_epochs != head.n_epochs:
            raise DynamicsError(
                "combined traces must share n_nodes and n_epochs"
            )
    events = [event for trace in traces for event in trace.events]
    return ScenarioTrace(head.n_nodes, head.n_epochs, events)
