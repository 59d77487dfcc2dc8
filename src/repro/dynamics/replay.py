"""The dynamics replay, declared: scenario in, per-epoch time series out.

:func:`replay_spec` turns a :class:`~repro.dynamics.events.ScenarioTrace`
into a two-stage :class:`~repro.runtime.grid.GridSpec`, which
:meth:`GridRunner.evaluate <repro.runtime.runner.GridRunner.evaluate>`
runs with the same machinery (and the same guarantees) as every figure:

1. **Placement points** — churn splits the timeline into fixed-membership
   segments; each segment's placement is one point running the existing
   best-``v0`` search over the member subtopology. Only churn forces this:
   capacity and RTT events never invalidate a placement.
2. **Segment-replay points**, the second stage, built from the
   placements — pure functions replaying a segment's epochs through an
   :class:`~repro.dynamics.controller.AdaptiveController`: one point
   per (policy, segment) on the oracle plane, and one point per segment
   for all closed-loop policies, which step in lockstep and share their
   probes. The ``clairvoyant`` policy (re-optimize every epoch) always
   runs as the regret baseline on the oracle plane.

:func:`tuning_spec` declares the threshold auto-tuner on top of a replay,
and :func:`tune_threshold` evaluates it on a runner of its own.

Every point carries a content cache key (topology/system fingerprints,
the segment's event stacks, the point's policy tuple; the cache folds in
the LP solver identity), so repeated replays — or replays sharing
segments — reuse results exactly like figure grid points do: an oracle
point per policy, a closed-loop point only for the same policy tuple.
Each point builds its own LP programs and sends them a request sequence
fixed by the point's inputs, so the point is a function of its inputs
and ``jobs=N`` is bit-identical to ``jobs=1`` (pinned by
``tests/test_dynamics.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Mapping, Sequence, cast

import numpy as np

from repro.dynamics.controller import (
    SegmentSeries,
    ThresholdPolicy,
    parse_policy,
    replay_segment,
)
from repro.dynamics.events import ScenarioTrace
from repro.dynamics.telemetry import PROBE_BACKEND, TelemetryConfig
from repro.errors import DynamicsError
from repro.lp import lp_backend_name
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.base import QuorumSystem
from repro.runtime.cache import (  # cache-key-input
    ResultCache,
    system_fingerprint,
    topology_fingerprint,
)
from repro.runtime.grid import GridPoint, GridSpec
from repro.runtime.runner import GridRunner

__all__ = [
    "CLAIRVOYANT",
    "DynamicsResult",
    "ThresholdTuning",
    "replay_spec",
    "simulate_placements",
    "tune_threshold",
    "tuning_spec",
]

#: Spec of the regret baseline: re-optimize at every epoch.
CLAIRVOYANT = "clairvoyant"

#: Open-loop run of :func:`simulate_placements` per segment: simulated
#: milliseconds and per-request service time.
_SIM_DURATION_MS = 2_000.0
_SIM_SERVICE_TIME_MS = 1.0

#: Per-segment telemetry seed stride: segment starts are < 100_003 epochs
#: apart in any sane trace, so (segment, epoch) probe seeds never collide.
_SEGMENT_SEED_STRIDE = 100_003


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """Outcome of one scenario replay.

    ``series`` maps canonical policy specs to their full-timeline
    :class:`~repro.dynamics.controller.SegmentSeries`; the ``clairvoyant``
    entry is the per-epoch optimum every other policy's regret is
    measured against.
    ``placements`` holds one global-node-space assignment per segment.
    """

    n_epochs: int
    policies: tuple[str, ...]
    series: dict[str, SegmentSeries]
    segments: tuple[tuple[int, int], ...]
    placements: tuple[np.ndarray, ...]
    metadata: dict = field(default_factory=dict)

    def regret(self, policy: str) -> np.ndarray:
        """Per-epoch excess delay of ``policy`` over the clairvoyant
        re-optimizer.

        Non-negative (up to LP tolerance) whenever the policy's strategy
        respects the epoch's capacities. A *stale* strategy can score
        below the clairvoyant on raw delay during a capacity crunch — by
        overloading crunched nodes, which the re-optimizer is not allowed
        to do; read negative regret together with
        :attr:`SegmentSeries.max_overload
        <repro.dynamics.controller.SegmentSeries.max_overload>`.
        """
        if policy not in self.series:
            raise DynamicsError(
                f"unknown policy {policy!r}; this replay ran "
                f"{sorted(self.series)}"
            )
        return (
            self.series[policy].expected_delay
            - self.series[CLAIRVOYANT].expected_delay
        )

    def render_text(self) -> str:
        """Aligned per-epoch table plus a per-policy summary."""
        specs = list(self.series)
        lines = [
            f"== dynamics replay: {self.n_epochs} epochs, "
            f"{len(self.segments)} segment(s) =="
        ]
        for key, value in sorted(self.metadata.items()):
            lines.append(f"   {key}: {value}")
        width = max(14, *(len(s) + 2 for s in specs))
        lines.append(
            "epoch".rjust(7) + "".join(s.rjust(width) for s in specs)
        )
        for t in range(self.n_epochs):
            row = [f"{t:7d}"]
            for spec in specs:
                series = self.series[spec]
                marker = "*" if series.reoptimized[t] else (
                    "!" if series.infeasible[t] else " "
                )
                row.append(
                    f"{series.expected_delay[t]:{width - 1}.2f}{marker}"
                )
            lines.append("".join(row))
        lines.append("   (* = re-optimized, ! = infeasible epoch)")
        for spec in specs:
            series = self.series[spec]
            summary = (
                f"   {spec}: {series.reopt_count} reopts, "
                f"{int(series.lp_solves.sum())} LP solves, "
                f"{int(series.assemblies.sum())} assemblies"
            )
            if spec != CLAIRVOYANT:
                summary += f", mean regret {self.regret(spec).mean():.3f} ms"
            if series.estimation_error.max() > 0:
                summary += (
                    f", mean est err "
                    f"{100 * series.mean_estimation_error:.1f}%"
                )
            if series.max_overload.max() > 1e-9:
                summary += (
                    f", peak overload {series.max_overload.max():.3f}"
                )
            lines.append(summary)
        return "\n".join(lines)


def _segment_placement(
    topology: Topology,
    system: QuorumSystem,
    up_nodes: np.ndarray,
    candidates: np.ndarray | None,
) -> np.ndarray:
    """Best one-to-one placement over the member subtopology.

    Returns the assignment in the *member* (sub) node space; module-level
    so the replay can fan segment placements out over worker processes.
    Placement considers membership only — transient capacity events are
    the strategy LP's problem, which is exactly why churn is the only
    event class that lands here.
    """
    sub = topology.subtopology(up_nodes)
    search = best_placement(sub, system, candidates=candidates)
    return search.placed.placement.assignment


def simulate_placements(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    result: DynamicsResult,
    rate_per_ms: float = 0.5,
    seed: int = 17,
) -> tuple[dict, ...]:
    """Cross-check a replay's per-segment placements in the simulator.

    The replay's expected-delay series comes from the analytic response
    model; this runs each segment's placement through
    :class:`~repro.sim.generic.GenericQuorumSimulation` under an open-loop
    Poisson workload on the **fluid backend** (2 simulated seconds per
    segment, 1 ms per request), which makes the cross-check cheap enough
    to run after every replay.
    Returns one dict per segment (``segment``, ``mean_response_ms``,
    ``p95_response_ms``, ``operations``, plus the request-conservation
    counters).

    This is membership-level validation: each segment is simulated on the
    base RTTs of its member subtopology (clients on every member node,
    the balanced strategy — :class:`ExplicitStrategy.uniform
    <repro.core.strategy.ExplicitStrategy>` when the system enumerates,
    the threshold-balanced sampler otherwise). Within-segment RTT drift
    and capacity events are the analytic series' territory; the simulator
    validates the placements, not the drift model.
    """
    from repro.core.placement import PlacedQuorumSystem, Placement
    from repro.core.strategy import (
        ExplicitStrategy,
        ThresholdBalancedStrategy,
    )
    from repro.sim.generic import GenericQuorumSimulation, GenericSimResult
    from repro.sim.workload import PoissonArrivals

    states = trace.states(topology)
    rows: list[dict] = []
    for index, (start, end) in enumerate(result.segments):
        up_nodes = states[start].up_nodes
        sub = topology.subtopology(up_nodes)
        # result.placements live in the global node space; map back into
        # the member (sub) space. up_nodes is sorted, so searchsorted is
        # the exact inverse of up_nodes[sub_assignment].
        assignment = np.searchsorted(up_nodes, result.placements[index])
        placed = PlacedQuorumSystem(system, Placement(assignment), sub)
        if system.is_enumerable:
            strategy = ExplicitStrategy.uniform(placed)
        else:
            strategy = ThresholdBalancedStrategy()
        sim = GenericQuorumSimulation(
            placed,
            strategy,
            client_nodes=np.arange(sub.n_nodes),
            service_time_ms=_SIM_SERVICE_TIME_MS,
            seed=seed + index,
            arrivals=PoissonArrivals(
                rate_per_ms=rate_per_ms, seed=seed + 1000 + index
            ),
            backend="fluid",
        )
        out = cast(
            GenericSimResult,
            sim.run(
                duration_ms=_SIM_DURATION_MS,
                warmup_ms=0.1 * _SIM_DURATION_MS,
            ),
        )
        rows.append(
            {
                "segment": (start, end),
                "members": int(sub.n_nodes),
                "mean_response_ms": float(out.stats.mean_response_ms),
                "p95_response_ms": float(out.stats.p95_response_ms),
                "operations": int(out.operations_completed),
                "requests_issued": int(out.requests_issued),
                "requests_processed": int(out.requests_processed),
                "requests_in_flight": int(out.requests_in_flight),
            }
        )
    return tuple(rows)


def replay_spec(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    policies: Sequence[str],
    candidates: object = None,
    telemetry: TelemetryConfig | None = None,
) -> GridSpec:
    """Declare the replay of a scenario trace under adaptation policies.

    The spec's points are the segment placements; its second stage builds
    the segment-replay points from them, and its ``assemble`` returns the
    :class:`DynamicsResult`.

    Parameters
    ----------
    topology, system:
        The base network and the (enumerable) quorum system to keep
        placed as the scenario mutates the network.
    trace:
        The scenario timeline (see :mod:`repro.dynamics.scenarios` for
        generators).
    policies:
        Adaptation policy specs (see
        :func:`~repro.dynamics.controller.parse_policy`); duplicates
        collapse, order is preserved. The oracle per-epoch re-optimizer
        always runs as the regret baseline, once, whether or not
        ``policies`` lists ``clairvoyant`` (or, in an oracle replay,
        ``periodic:1``).
    candidates:
        Optional global node ids restricting each segment's placement
        search (intersected with the members; the paper's recipe searches
        every node).
    telemetry:
        A :class:`~repro.dynamics.telemetry.TelemetryConfig` runs every
        policy **closed-loop**: decisions are made from simulated-probe
        estimates instead of the oracle scenario values (see
        :mod:`repro.dynamics.telemetry`). The ``clairvoyant`` baseline
        deliberately stays oracle — it is the true-information optimum
        that regret is defined against — while a closed-loop
        ``periodic:1`` re-optimizes every epoch from estimates and is a
        policy of its own. Each segment's probes get a distinct seed
        derived from ``telemetry.seed`` and the segment's start epoch,
        and the configuration is part of the closed-loop points' cache
        keys.
    """
    specs: list[str] = []
    for policy in policies:
        spec = parse_policy(policy).spec
        if str(policy).strip().lower() == CLAIRVOYANT or (
            telemetry is None and spec == "periodic:1"
        ):
            # An oracle periodic:1 *is* the per-epoch re-optimizer: fold
            # it into the clairvoyant entry so it is never replayed twice
            # under two names (and regret against it is identically zero).
            spec = CLAIRVOYANT
        if spec not in specs:
            specs.append(spec)
    if not specs:
        raise DynamicsError("replay needs at least one policy")
    if CLAIRVOYANT not in specs:
        specs.append(CLAIRVOYANT)

    states = trace.states(topology)
    segments = trace.segments()
    topo_fp = topology_fingerprint(topology)
    sys_fp = system_fingerprint(system)
    candidate_arr = (
        None if candidates is None else np.asarray(candidates, dtype=np.intp)
    )

    # Stage 1 — one placement per fixed-membership segment. A replay of
    # the same trace (or another trace sharing a member set) hits the
    # cache instead of re-running the search.
    placement_points = []
    for index, (start, _end) in enumerate(segments):
        up_nodes = states[start].up_nodes
        if candidate_arr is None:
            cand_sub = None
        else:
            # Map surviving global candidates into the sub node space.
            mask = np.isin(up_nodes, candidate_arr)
            cand_sub = np.flatnonzero(mask)
            if cand_sub.size == 0:
                cand_sub = None  # all candidates churned out: search all
        placement_points.append(
            GridPoint(
                tag=index,
                fn=_segment_placement,
                kwargs={
                    "topology": topology,
                    "system": system,
                    "up_nodes": up_nodes,
                    "candidates": cand_sub,
                },
                cache_key={
                    "figure_point": "dynamics_placement",
                    "topology": topo_fp,
                    "system": sys_fp,
                    "up_nodes": up_nodes,
                    "candidates": cand_sub,
                },
            )
        )

    # Stage 2 — per segment, one replay point per oracle policy and one
    # for all closed-loop policies, which share their probes. The
    # clairvoyant baseline stays oracle even in closed-loop replays:
    # regret is defined against the true-information optimum.
    if telemetry is None:
        planes = [((spec,), False) for spec in specs]
    else:
        closed = tuple(s for s in specs if s != CLAIRVOYANT)
        planes = [(closed, True)] if closed else []
        planes.append(((CLAIRVOYANT,), False))

    def segment_points(
        sub_assignments: Mapping[Hashable, Any]
    ) -> list[GridPoint]:
        points = []
        for index, (start, end) in enumerate(segments):
            up_nodes = states[start].up_nodes
            sub_topology = topology.subtopology(up_nodes)
            factors = np.stack(
                [states[t].rtt_factors[up_nodes] for t in range(start, end)]
            )
            caps = np.stack(
                [states[t].capacities[up_nodes] for t in range(start, end)]
            )
            changed = np.array(
                [states[t].rtt_changed for t in range(start, end)]
            )
            changed[0] = True  # segment entry always initializes
            seg_telemetry = (
                None
                if telemetry is None
                else replace(
                    telemetry,
                    seed=telemetry.seed + _SEGMENT_SEED_STRIDE * start,
                )
            )
            for plane, closed_loop in planes:
                point_telemetry = seg_telemetry if closed_loop else None
                kwargs = {
                    "topology": sub_topology,
                    "system": system,
                    "assignment": sub_assignments[index],
                    "rtt_factors": factors,
                    "capacities": caps,
                    "rtt_changed": changed,
                    "policies": tuple(
                        "periodic:1" if s == CLAIRVOYANT else s
                        for s in plane
                    ),
                    "telemetry": point_telemetry,
                }
                points.append(
                    GridPoint(
                        tag=(plane, index),
                        fn=replay_segment,
                        kwargs=kwargs,
                        cache_key={
                            "figure_point": "dynamics_segment",
                            "topology": topo_fp,
                            "system": sys_fp,
                            "up_nodes": up_nodes,
                            "assignment": sub_assignments[index],
                            "rtt_factors": factors,
                            "capacities": caps,
                            "rtt_changed": changed,
                            "policies": kwargs["policies"],
                            "telemetry": None
                            if point_telemetry is None
                            else point_telemetry.fingerprint_components(),
                        },
                    )
                )
        return points

    def assemble(results: Mapping[Hashable, Any]) -> DynamicsResult:
        by_spec: dict[str, list[SegmentSeries]] = {spec: [] for spec in specs}
        for index in range(len(segments)):
            for plane, _closed_loop in planes:
                for spec, part in zip(plane, results[(plane, index)]):
                    by_spec[spec].append(part)
        return DynamicsResult(
            n_epochs=trace.n_epochs,
            policies=tuple(s for s in specs if s != CLAIRVOYANT),
            series={
                spec: SegmentSeries.concatenate(parts)
                for spec, parts in by_spec.items()
            },
            segments=tuple(segments),
            placements=tuple(
                states[start].up_nodes[results[index]]
                for index, (start, _end) in enumerate(segments)
            ),
            metadata={
                "system": system.name,
                "events": len(trace.events),
                "lp_backend": lp_backend_name(),
                "closed_loop": telemetry is not None,
                **(
                    {}
                    if telemetry is None
                    else {
                        "telemetry_noise": telemetry.noise,
                        "probe_backend": PROBE_BACKEND,
                    }
                ),
            },
        )

    return GridSpec(
        figure_id="dynamics replay",
        points=tuple(placement_points),
        assemble=assemble,
        then=segment_points,
    )


@dataclass(frozen=True, eq=False)
class ThresholdTuning:
    """Outcome of a threshold sweep (:func:`tuning_spec`).

    ``mean_regret``/``reopt_counts``/``lp_solves`` are keyed by canonical
    threshold spec; ``result`` is the underlying :class:`DynamicsResult`
    holding the full per-epoch series for every swept threshold (and any
    ``baseline_policies``), so the winning policy's series never needs a
    second replay.
    """

    thresholds: tuple[float, ...]
    specs: tuple[str, ...]
    mean_regret: dict[str, float]
    reopt_counts: dict[str, int]
    lp_solves: dict[str, int]
    best_spec: str
    best_threshold: float
    result: DynamicsResult

    def render_text(self) -> str:
        lines = [
            f"== threshold auto-tune: {len(self.specs)} candidate(s), "
            f"{self.result.n_epochs} epochs =="
        ]
        width = max(14, *(len(s) + 2 for s in self.specs))
        lines.append(
            "".join(
                h.rjust(w)
                for h, w in (
                    ("spec", width),
                    ("mean regret", 14),
                    ("reopts", 9),
                    ("LP solves", 12),
                )
            )
        )
        for spec in self.specs:
            marker = " *" if spec == self.best_spec else "  "
            lines.append(
                spec.rjust(width)
                + f"{self.mean_regret[spec]:14.3f}"
                + f"{self.reopt_counts[spec]:9d}"
                + f"{self.lp_solves[spec]:12d}"
                + marker
            )
        lines.append(
            f"   best: {self.best_spec} "
            f"(mean regret {self.mean_regret[self.best_spec]:.3f} ms)"
        )
        return "\n".join(lines)


def tuning_spec(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    thresholds: Sequence[float],
    telemetry: TelemetryConfig | None,
    baseline_policies: Sequence[str],
    candidates: object,
) -> GridSpec:
    """Declare the auto-tuning of the ``threshold:<x>`` policy.

    Every candidate threshold is a policy of **one** :func:`replay_spec`.
    In closed loop, each segment's candidates (and ``baseline_policies``)
    run in lockstep in one grid point, which shares each probe among the
    policies whose strategies agree and measures the rest in one fluid
    pass per epoch; in an oracle sweep every candidate is a point of its
    own. The clairvoyant baseline and the placements are points of their
    own too, cache-keyed like every grid point, so the points parallelize
    across workers, the sweep stays bit-identical for ``jobs=N``, and
    cached segments are reused. The spec's ``assemble`` returns a
    :class:`ThresholdTuning`, whose winner minimizes mean regret against
    the clairvoyant optimum; exact ties break toward fewer LP solves, then
    toward the larger (cheaper) threshold — deterministically.

    ``baseline_policies`` (e.g. ``("static",)``) ride along in the same
    replay for comparison but are not eligible to win.
    """
    parsed: list[ThresholdPolicy] = []
    for value in thresholds:
        try:
            numeric = float(value)
        except (TypeError, ValueError):
            raise DynamicsError(
                f"threshold candidates must be numbers, got {value!r}"
            ) from None
        policy = ThresholdPolicy(numeric)  # validates positivity
        if policy.spec not in [p.spec for p in parsed]:
            parsed.append(policy)
    if not parsed:
        raise DynamicsError(
            "threshold tuning needs at least one candidate threshold"
        )
    specs = tuple(p.spec for p in parsed)
    sweep = replay_spec(
        topology, system, trace, tuple(baseline_policies) + specs,
        candidates, telemetry,
    )

    def assemble(results: Mapping[Hashable, Any]) -> ThresholdTuning:
        result = sweep.assemble(results)
        mean_regret = {s: float(result.regret(s).mean()) for s in specs}
        lp_solves = {
            s: int(result.series[s].lp_solves.sum()) for s in specs
        }
        best = min(
            parsed,
            key=lambda p: (
                mean_regret[p.spec],
                lp_solves[p.spec],
                -p.degradation,
            ),
        )
        return ThresholdTuning(
            thresholds=tuple(p.degradation for p in parsed),
            specs=specs,
            mean_regret=mean_regret,
            reopt_counts={s: result.series[s].reopt_count for s in specs},
            lp_solves=lp_solves,
            best_spec=best.spec,
            best_threshold=best.degradation,
            result=result,
        )

    return replace(sweep, figure_id="threshold tuning", assemble=assemble)


def tune_threshold(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    thresholds: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2),
    telemetry: TelemetryConfig | None = None,
    baseline_policies: Sequence[str] = (),
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> ThresholdTuning:
    """Auto-tune the ``threshold:<x>`` policy over a replayed trace.

    Evaluates :func:`tuning_spec`, with every node a placement candidate,
    on a runner of its own with ``jobs`` workers and ``cache`` attached.
    """
    spec = tuning_spec(
        topology, system, trace, thresholds, telemetry, baseline_policies,
        None,
    )
    with GridRunner(jobs=jobs, cache=cache) as runner:
        return runner.evaluate(spec)
