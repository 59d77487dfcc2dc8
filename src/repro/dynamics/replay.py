"""The dynamics replay driver: scenario in, per-epoch time series out.

:func:`replay` turns a :class:`~repro.dynamics.events.ScenarioTrace` into
independent grid points and schedules them through a
:class:`~repro.runtime.runner.GridRunner` — the same machinery (and the
same guarantees) the figure runners use:

1. **Placement points** — churn splits the timeline into fixed-membership
   segments; each segment's placement is one point running the existing
   best-``v0`` search over the member subtopology. Only churn forces this:
   capacity and RTT events never invalidate a placement.
2. **Segment-replay points** — one point per (policy, segment), each a
   pure function replaying the segment's epochs through an
   :class:`~repro.dynamics.controller.AdaptiveController`. The
   ``clairvoyant`` policy (re-optimize every epoch) is added automatically
   as the regret baseline.

Every point carries a content cache key (topology/system fingerprints,
the segment's event stacks, the policy spec, the LP backend), so repeated
replays — or replays sharing segments — reuse results exactly like figure
grid points do. Canonical LP solves make each point a pure function of
its inputs, so ``jobs=N`` is bit-identical to ``jobs=1`` (pinned by
``tests/test_dynamics.py``).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Sequence

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
from repro.obs import tracer as obs
from repro.placement.search import best_placement
from repro.quorums.base import QuorumSystem
from repro.runtime.cache import (  # cache-key-input
    ResultCache,
    system_fingerprint,
    topology_fingerprint,
)
from repro.runtime.grid import GridPoint
from repro.runtime.runner import GridRunner, shared_runner

__all__ = [
    "CLAIRVOYANT",
    "DynamicsResult",
    "ThresholdTuning",
    "replay",
    "simulate_placements",
    "tune_threshold",
]

#: Spec of the regret baseline: re-optimize at every epoch.
CLAIRVOYANT = "clairvoyant"

#: Per-segment telemetry seed stride: segment starts are < 100_003 epochs
#: apart in any sane trace, so (segment, epoch) probe seeds never collide.
_SEGMENT_SEED_STRIDE = 100_003


@dataclass(frozen=True, eq=False)
class DynamicsResult:
    """Outcome of one scenario replay.

    ``series`` maps canonical policy specs to their full-timeline
    :class:`~repro.dynamics.controller.SegmentSeries`; the ``clairvoyant``
    entry (when present) is the per-epoch optimum every other policy's
    regret is measured against.
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
        if CLAIRVOYANT not in self.series:
            raise DynamicsError(
                "replay ran without the clairvoyant baseline; "
                "pass include_clairvoyant=True to measure regret"
            )
        return (
            self.series[policy].expected_delay
            - self.series[CLAIRVOYANT].expected_delay
        )

    def cumulative_regret(self, policy: str) -> np.ndarray:
        """Running sum of :meth:`regret` — total excess delay paid so far."""
        return np.cumsum(self.regret(policy))

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
            if spec != CLAIRVOYANT and CLAIRVOYANT in self.series:
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
    so the driver can fan segment placements out over worker processes.
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
    duration_ms: float = 2_000.0,
    service_time_ms: float = 1.0,
    seed: int = 17,
) -> tuple[dict, ...]:
    """Cross-check a replay's per-segment placements in the simulator.

    The replay's expected-delay series comes from the analytic response
    model; this runs each segment's placement through
    :class:`~repro.sim.generic.GenericQuorumSimulation` under an open-loop
    Poisson workload on the **fluid backend**, which makes the cross-check
    cheap enough to run after every replay.
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
    from repro.sim.generic import GenericQuorumSimulation
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
            service_time_ms=service_time_ms,
            seed=seed + index,
            arrivals=PoissonArrivals(
                rate_per_ms=rate_per_ms, seed=seed + 1000 + index
            ),
            backend="fluid",
        )
        out = sim.run(duration_ms=duration_ms, warmup_ms=0.1 * duration_ms)
        rows.append(
            {
                "segment": (start, end),
                "members": int(sub.n_nodes),
                "mean_response_ms": float(out.stats.mean_response_ms),
                "p95_response_ms": float(out.stats.p95_response_ms),
                "operations": int(out.operations_completed),
                "requests_issued": int(out.requests_issued),
                "requests_processed": int(out.requests_processed),
                "requests_dropped": int(out.requests_dropped),
                "requests_in_flight": int(out.requests_in_flight),
            }
        )
    return tuple(rows)


def replay(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    policies: Sequence[str] = ("static", "periodic:4", "threshold:0.05"),
    include_clairvoyant: bool = True,
    candidates: object = None,
    runner: GridRunner | None = None,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    telemetry: TelemetryConfig | None = None,
) -> DynamicsResult:
    """Replay a scenario trace and measure how policies track the optimum.

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
        collapse, order is preserved.
    include_clairvoyant:
        Add the per-epoch re-optimizer as the regret baseline (skipped if
        already among ``policies``).
    candidates:
        Optional global node ids restricting each segment's placement
        search (intersected with the members; the paper's recipe searches
        every node).
    runner:
        A shared :class:`~repro.runtime.runner.GridRunner`. Without one,
        a runner with ``jobs`` workers and ``cache`` attached is created
        for this call. With one, its worker count is authoritative —
        passing a non-default ``jobs`` alongside it raises — and
        ``cache`` is attached to it for the duration of the call (a
        runner already carrying a *different* cache raises), the same
        conflict contract as ``run_figure``.
    telemetry:
        A :class:`~repro.dynamics.telemetry.TelemetryConfig` runs every
        policy **closed-loop**: decisions are made from simulated-probe
        estimates instead of the oracle scenario values (see
        :mod:`repro.dynamics.telemetry`). The ``clairvoyant`` baseline
        deliberately stays oracle — it is the true-information optimum
        that regret is defined against. Each segment's probes get a
        distinct seed derived from ``telemetry.seed`` and the segment's
        start epoch, and the configuration is part of every segment
        point's cache key.
    """
    specs: list[str] = []
    for policy in policies:
        spec = parse_policy(policy).spec
        if spec == "periodic:1":
            # periodic:1 *is* the per-epoch re-optimizer: fold it into the
            # clairvoyant entry so it is never replayed twice under two
            # names (and regret against it is identically zero).
            spec = CLAIRVOYANT
        if spec not in specs:
            specs.append(spec)
    if not specs:
        raise DynamicsError("replay needs at least one policy")
    if include_clairvoyant and CLAIRVOYANT not in specs:
        specs.append(CLAIRVOYANT)

    states = trace.states(topology)
    segments = trace.segments()
    topo_fp = topology_fingerprint(topology)
    sys_fp = system_fingerprint(system)
    candidate_arr = (
        None if candidates is None else np.asarray(candidates, dtype=np.intp)
    )

    with ExitStack() as stack:
        if runner is None:
            runner = stack.enter_context(GridRunner(jobs=jobs, cache=cache))
        else:
            runner = stack.enter_context(
                shared_runner(runner, jobs=jobs, cache=cache)
            )
        # Phase 1 — one placement per fixed-membership segment. A replay
        # of the same trace (or another trace sharing a member set) hits
        # the cache instead of re-running the search.
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
        with obs.span(
            "dynamics.placements", segments=len(segments)
        ):
            placement_results = runner.run(placement_points)
        sub_assignments = [
            placement_results[index] for index in range(len(segments))
        ]

        # Phase 2 — one replay point per (policy, segment).
        points = []
        sub_topologies = []
        for index, (start, end) in enumerate(segments):
            up_nodes = states[start].up_nodes
            sub_topologies.append(topology.subtopology(up_nodes))
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
            for spec in specs:
                # The clairvoyant baseline stays oracle even in
                # closed-loop replays: regret is defined against the
                # true-information optimum.
                point_telemetry = (
                    None if spec == CLAIRVOYANT else seg_telemetry
                )
                kwargs = {
                    "topology": sub_topologies[index],
                    "system": system,
                    "assignment": sub_assignments[index],
                    "rtt_factors": factors,
                    "capacities": caps,
                    "rtt_changed": changed,
                    "policy": "periodic:1" if spec == CLAIRVOYANT else spec,
                    "telemetry": point_telemetry,
                }
                points.append(
                    GridPoint(
                        tag=(spec, index),
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
                            "policy": kwargs["policy"],
                            "telemetry": None
                            if point_telemetry is None
                            else point_telemetry.fingerprint_components(),
                            # Tied optima may break differently per solver
                            # path; never serve one backend's vertices to
                            # the other.
                            "lp_backend": lp_backend_name(),
                        },
                    )
                )
        with obs.span("dynamics.replays", points=len(points)):
            results = runner.run(points)

    series = {
        spec: SegmentSeries.concatenate(
            [results[(spec, index)] for index in range(len(segments))]
        )
        for spec in specs
    }

    placements = tuple(
        states[start].up_nodes[sub_assignments[index]]
        for index, (start, _end) in enumerate(segments)
    )
    return DynamicsResult(
        n_epochs=trace.n_epochs,
        policies=tuple(s for s in specs if s != CLAIRVOYANT),
        series=series,
        segments=tuple(segments),
        placements=placements,
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


@dataclass(frozen=True, eq=False)
class ThresholdTuning:
    """Outcome of a :func:`tune_threshold` sweep.

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


def tune_threshold(
    topology: Topology,
    system: QuorumSystem,
    trace: ScenarioTrace,
    thresholds: Sequence[float] = (0.01, 0.02, 0.05, 0.1, 0.2),
    telemetry: TelemetryConfig | None = None,
    baseline_policies: Sequence[str] = (),
    candidates: object = None,
    runner: GridRunner | None = None,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> ThresholdTuning:
    """Auto-tune the ``threshold:<x>`` policy over a replayed trace.

    Sweeps every candidate threshold through **one** :func:`replay` call:
    all (policy, segment) points land as cache-keyed grid points on one
    :class:`~repro.runtime.runner.GridRunner`, so the sweep parallelizes
    across workers, stays bit-identical for ``jobs=N``, and reuses any
    cached segments (the clairvoyant baseline and the placements are
    shared by every candidate). The winner minimizes mean regret against
    the clairvoyant optimum; exact ties break toward fewer LP solves,
    then toward the larger (cheaper) threshold — deterministically.

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
            "tune_threshold needs at least one candidate threshold"
        )
    specs = tuple(p.spec for p in parsed)

    result = replay(
        topology,
        system,
        trace,
        policies=tuple(baseline_policies) + specs,
        include_clairvoyant=True,
        candidates=candidates,
        runner=runner,
        jobs=jobs,
        cache=cache,
        telemetry=telemetry,
    )
    mean_regret = {s: float(result.regret(s).mean()) for s in specs}
    reopt_counts = {s: result.series[s].reopt_count for s in specs}
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
        reopt_counts=reopt_counts,
        lp_solves=lp_solves,
        best_spec=best.spec,
        best_threshold=best.degradation,
        result=result,
    )
