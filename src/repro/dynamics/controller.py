"""Adaptation policies and the per-segment replay kernel.

Between two churn boundaries the placement is fixed, so everything an
adaptation policy does is drive the access-strategy LP (4.3)-(4.6) of one
:class:`~repro.core.placement.PlacedQuorumSystem` as the topology drifts
under it. The :class:`AdaptiveController` keeps one persistent warm
program per policy and segment and maps events onto the batched LP
backend's cheap paths:

* **capacity events** are pure RHS — a re-optimization is one anchored
  re-solve of the warm program;
* **RTT-drift events** rewrite the objective in place
  (:meth:`~repro.strategies.lp_optimizer.StrategyProgram.update_delays`)
  against the same warm model — the constraint system is RTT-free;
* only the segment's *first* epoch pays an assembly.

The warm program answers the same LPs a rebuild-and-solve-cold controller
would, so their objectives agree within solver tolerance at every
re-optimization epoch; that baseline lives beside the pins that hold it
(``tests/test_dynamics.py``) and the benchmark that measures against it
(``benchmarks/bench_dynamics.py``). Each segment owns its programs, and
the requests they are sent are a function of the segment's inputs, so the
anchored solves make the whole replay a function of its inputs — which
is what lets :func:`~repro.dynamics.replay.replay_spec` declare segments
as grid points that a :class:`~repro.runtime.runner.GridRunner` runs
with ``jobs=N`` bit-identical to ``jobs=1``.

Policy contract
---------------
A policy sees, at every epoch after the segment's first, the expected
delay of the strategy currently in force (measured under the epoch's
drifted delays) and the expected delay it had right after the last
re-optimization; it returns whether to re-optimize now. The first epoch of
a segment always re-optimizes (the placement is fresh). ``clairvoyant`` —
re-optimize every epoch — is the regret baseline.

Lockstep
--------
One controller steps the policies of a segment that see the same
measurement plane (the oracle, or one telemetry configuration) through
the epochs together, computing the true effective RTT and delay matrix
once per epoch for them. In closed loop, policies whose in-force
matrices are equal would probe the same world with the same strategy
and seed, so they share one probe sample, and each epoch probes the
distinct strategies in one fluid pass. Every policy keeps its own
:class:`~repro.dynamics.telemetry.TelemetryEstimator`, noise generator
and :class:`~repro.strategies.lp_optimizer.StrategyProgram` (a HiGHS
program's answers can depend on its request history), so each policy's
series is byte-identical to a controller that replays it alone (the
reference in ``tests/oracles.py``).

A live program holds its HiGHS model and solver state, so the policies
step in groups whose live programs stay within :data:`_LOCKSTEP_COLUMNS`
LP columns, one group after another (see :func:`_lockstep_groups`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ExplicitStrategy
from repro.dynamics.events import effective_rtt
from repro.dynamics.telemetry import (
    TelemetryConfig,
    TelemetryEstimator,
    probe_epoch,
)
from repro.errors import DynamicsError, InfeasibleError
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.quorums.base import QuorumSystem
from repro.strategies.lp_optimizer import StrategyProgram

__all__ = [
    "AdaptiveController",
    "PeriodicPolicy",
    "SegmentSeries",
    "StaticPolicy",
    "ThresholdPolicy",
    "parse_policy",
    "replay_segment",
]


@dataclass(frozen=True)
class StaticPolicy:
    """Optimize once per segment, then never adapt."""

    spec = "static"

    def should_reoptimize(
        self, epoch_in_segment: int, value_now: float, value_at_reopt: float
    ) -> bool:
        return epoch_in_segment == 0


@dataclass(frozen=True)
class PeriodicPolicy:
    """Re-optimize every ``period`` epochs, drift be damned."""

    period: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise DynamicsError(
                f"periodic policy needs period >= 1, got {self.period}"
            )

    @property
    def spec(self) -> str:
        return f"periodic:{self.period}"

    def should_reoptimize(
        self, epoch_in_segment: int, value_now: float, value_at_reopt: float
    ) -> bool:
        return epoch_in_segment % self.period == 0


@dataclass(frozen=True)
class ThresholdPolicy:
    """Re-optimize when measured degradation exceeds a relative bound.

    Degradation is ``value_now / value_at_last_reopt - 1`` — how much the
    strategy currently in force has drifted away from the quality it was
    (re)optimized at, measured with the cheap matrix evaluation, no LP.
    """

    degradation: float

    def __post_init__(self) -> None:
        # The explicit finiteness check matters: nan/inf pass a naive
        # `<= 0` test and silently degrade the policy to never-reoptimize.
        if not (np.isfinite(self.degradation) and self.degradation > 0):
            raise DynamicsError(
                "threshold policy needs a positive finite relative "
                f"degradation, got {self.degradation}"
            )

    @property
    def spec(self) -> str:
        return f"threshold:{self.degradation:g}"

    def should_reoptimize(
        self, epoch_in_segment: int, value_now: float, value_at_reopt: float
    ) -> bool:
        if epoch_in_segment == 0:
            return True
        if value_at_reopt <= 0:
            return value_now > 0
        return value_now > value_at_reopt * (1.0 + self.degradation)


#: Any of the three adaptation policies; they share the
#: ``spec`` / ``should_reoptimize`` protocol but no base class.
AdaptationPolicy = StaticPolicy | PeriodicPolicy | ThresholdPolicy

#: LP columns (clients x quorums per program) that the live programs of
#: one lockstep group may hold: four planetlab-50 Grid 5x5 programs of
#: 1,250 columns, each holding 3.9 MB of heap after its calibration
#: solve. So the four thresholds that ``tune_threshold`` tries step in
#: one group, 240 fluid passes on the closed-loop benchmark instead of
#: the 480 of two-program groups. On a 2-core host that took the
#: benchmark's wall time from 1.65-1.77 to 1.48-1.60 s and its peak RSS
#: from 59.3 to 68.0 MB (4 alternating runs each). A static policy rides
#: along free: its program is released after its one successful solve.
_LOCKSTEP_COLUMNS = 5_000


def parse_policy(spec: str) -> AdaptationPolicy:
    """Parse a policy spec: ``static``, ``periodic:<k>``,
    ``threshold:<x>``, or ``clairvoyant`` (= ``periodic:1``).

    >>> parse_policy("periodic:4").period
    4
    >>> parse_policy("threshold:0.05").degradation
    0.05
    >>> parse_policy("clairvoyant").spec
    'periodic:1'
    """
    parts = str(spec).strip().lower().split(":")
    try:
        if parts == ["static"]:
            return StaticPolicy()
        if parts == ["clairvoyant"]:
            return PeriodicPolicy(1)
        if parts[0] == "periodic" and len(parts) == 2:
            return PeriodicPolicy(int(parts[1]))
        if parts[0] == "threshold" and len(parts) == 2:
            return ThresholdPolicy(float(parts[1]))
    except ValueError:
        pass
    raise DynamicsError(
        f"cannot parse policy spec {spec!r}; expected 'static', "
        "'periodic:<k>', 'threshold:<x>', or 'clairvoyant'"
    )


@dataclass(frozen=True, eq=False)
class SegmentSeries:
    """Per-epoch outcome arrays of one policy over a segment or a timeline.

    All arrays share one epoch count: a segment's when a controller
    returns it, the whole trace's once :meth:`concatenate` has stitched
    the segments together. ``expected_delay`` is the expected network
    delay of the strategy in force at the end of each epoch, measured
    under that epoch's **true** drifted RTTs — also in closed-loop runs,
    where decisions were made from estimates; ``max_overload`` is the
    worst per-node capacity violation of that strategy under the epoch's
    capacities (a *stale* strategy can undercut a freshly optimized one on
    raw delay precisely by overloading crunched nodes — this series is
    what keeps that visible); ``lp_solves`` counts solver invocations
    charged to the epoch (anchor calibrations included), ``assemblies``
    full program assemblies.

    The last three series are the closed loop's: ``estimation_error`` is
    the mean relative error of the estimated delay matrix against the
    true one, ``staleness`` the mean age (epochs) of the per-pair RTT
    estimates, and ``probe_operations`` how many simulated probe replies
    fed the epoch's estimate. All three are identically zero in oracle
    (open-loop) replays and for the clairvoyant baseline, which always
    sees the truth.
    """

    expected_delay: np.ndarray
    reoptimized: np.ndarray
    infeasible: np.ndarray
    max_overload: np.ndarray
    lp_solves: np.ndarray
    assemblies: np.ndarray
    estimation_error: np.ndarray
    staleness: np.ndarray
    probe_operations: np.ndarray

    def __post_init__(self) -> None:
        arrays = [getattr(self, f.name) for f in fields(self)]
        if any(a.ndim != 1 for a in arrays):
            raise DynamicsError("segment series must be 1-D arrays")
        lengths = {a.shape[0] for a in arrays}
        if len(lengths) != 1:
            raise DynamicsError(
                "segment series must share one epoch count; "
                f"got lengths {sorted(lengths)}"
            )

    @classmethod
    def concatenate(cls, parts: Sequence[SegmentSeries]) -> SegmentSeries:
        """Stitch consecutive segments' series into one timeline."""
        return cls(
            **{
                f.name: np.concatenate([getattr(p, f.name) for p in parts])
                for f in fields(cls)
            }
        )

    @property
    def reopt_count(self) -> int:
        return int(self.reoptimized.sum())

    @property
    def mean_estimation_error(self) -> float:
        """Mean relative delay-matrix estimation error over the epochs."""
        return float(self.estimation_error.mean())


def _expected_delay(matrix: np.ndarray, delta: np.ndarray) -> float:
    """``avg_v sum_i p[v, i] delta[v, i]`` — objective (4.3) evaluated."""
    return float((matrix * delta).sum(axis=1).mean())


def _empty_series(n_epochs: int) -> SegmentSeries:
    return SegmentSeries(
        expected_delay=np.zeros(n_epochs),
        reoptimized=np.zeros(n_epochs, dtype=bool),
        infeasible=np.zeros(n_epochs, dtype=bool),
        max_overload=np.zeros(n_epochs),
        lp_solves=np.zeros(n_epochs, dtype=np.intp),
        assemblies=np.zeros(n_epochs, dtype=np.intp),
        estimation_error=np.zeros(n_epochs),
        staleness=np.zeros(n_epochs),
        probe_operations=np.zeros(n_epochs, dtype=np.intp),
    )


def _lockstep_groups(
    policies: Sequence[AdaptationPolicy], columns: int
) -> list[list[int]]:
    """Indices of ``policies`` in the groups a controller steps in turn,
    for programs of ``columns`` LP columns each: static policies join the
    first group, and the rest, in order, fill groups of as many programs
    as :data:`_LOCKSTEP_COLUMNS` holds (at least one)."""
    width = max(1, _LOCKSTEP_COLUMNS // columns)
    is_static = [isinstance(p, StaticPolicy) for p in policies]
    static = [i for i, flag in enumerate(is_static) if flag]
    adaptive = [i for i, flag in enumerate(is_static) if not flag]
    groups = [
        adaptive[k : k + width] for k in range(0, len(adaptive), width)
    ] or [[]]
    groups[0] = static + groups[0]
    return groups


def _group_equal(
    indices: Sequence[int], matrices: Mapping[int, np.ndarray]
) -> list[list[int]]:
    """``indices`` grouped by equal ``matrices[i]``, groups in order of
    first appearance."""
    groups: list[list[int]] = []
    for i in indices:
        for group in groups:
            lead = matrices[group[0]]
            if matrices[i] is lead or np.array_equal(matrices[i], lead):
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


class AdaptiveController:
    """Replays one fixed-placement segment under several adaptation
    policies, stepped in lockstep groups.

    Parameters
    ----------
    placed:
        The segment's placed quorum system (over the member node space).
    policies:
        Policy objects (see :func:`parse_policy`). :meth:`run_segment`
        returns one series per policy, in order, each byte-identical to a
        controller of that policy alone; see the module's *Lockstep*
        section.
    telemetry:
        A :class:`~repro.dynamics.telemetry.TelemetryConfig` switches
        every policy to **closed-loop** operation: every epoch it probes
        the placed system through the simulator, folds the observed
        response times into a
        :class:`~repro.dynamics.telemetry.TelemetryEstimator`, and makes
        all decisions — the policy's ``should_reoptimize`` and the warm
        LP's objective/RHS — from the *estimates*. The oracle scenario
        values are used only to score the resulting strategies.
    """

    def __init__(
        self,
        placed: PlacedQuorumSystem,
        policies: Sequence[AdaptationPolicy],
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        self.placed = placed
        self.policies = tuple(policies)
        if not self.policies:
            raise DynamicsError("a controller needs at least one policy")
        self.telemetry = telemetry
        self._programs: list[StrategyProgram | None] = [None] * len(
            self.policies
        )
        self._synced_delta: list[np.ndarray | None] = [None] * len(
            self.policies
        )
        self._uniform = np.full(
            (placed.n_nodes, placed.num_quorums), 1.0 / placed.num_quorums
        )

    def _reoptimize(
        self, index: int, delta: np.ndarray, capacities: np.ndarray
    ) -> tuple[np.ndarray | None, int, int]:
        """One re-optimization of policy ``index``'s program; returns
        (matrix or None, solves, builds)."""
        builds = 0
        program = self._programs[index]
        if program is None:
            program = StrategyProgram(self.placed, delay_matrix=delta)
            self._programs[index] = program
            self._synced_delta[index] = delta
            builds = 1
        elif self._synced_delta[index] is not delta:
            program.update_delays(delta)
            self._synced_delta[index] = delta
        before = program.lp_solves
        try:
            matrix = program.solve(capacities).matrix
        except InfeasibleError:
            matrix = None
        return matrix, program.lp_solves - before, builds

    def run_segment(
        self,
        rtt_factors: np.ndarray,
        capacities: np.ndarray,
        rtt_changed: np.ndarray,
    ) -> tuple[SegmentSeries, ...]:
        """Replay the segment's epochs in order under every policy.

        ``rtt_factors``/``capacities`` are ``(epochs, nodes)`` stacks over
        the segment's node space; ``rtt_changed[i]`` marks epochs whose
        drift actually moved (the delay matrix is recomputed only there).
        An infeasible re-optimization keeps the strategy in force (the
        segment's first epoch falls back to the uniform strategy) and is
        recorded, never silently dropped. Returns one series per policy,
        in order.

        In closed-loop runs (``telemetry`` set) the per-epoch stacks
        describe the **world the probe traffic traverses**; the policies
        and the LPs see only the estimators' view of it. Probe seeds are
        ``config.seed + epoch`` and each policy's measurement-noise stream
        is one seeded generator consumed in epoch order, so closed-loop
        replays stay pure functions of their inputs (``jobs=N``
        bit-identical).
        """
        factors = np.asarray(rtt_factors, dtype=np.float64)
        caps = np.asarray(capacities, dtype=np.float64)
        changed = np.asarray(rtt_changed, dtype=bool)
        n_epochs = factors.shape[0]
        if caps.shape[0] != n_epochs or changed.shape[0] != n_epochs:
            raise DynamicsError(
                "per-epoch stacks must share the segment's epoch count"
            )
        outs = tuple(_empty_series(n_epochs) for _ in self.policies)
        shared = 0
        columns = self.placed.n_nodes * self.placed.num_quorums
        for group in _lockstep_groups(self.policies, columns):
            shared += self._step_group(group, factors, caps, changed, outs)
            for p in group:  # free the group's programs for the next one
                self._programs[p] = None
        obs.count("dynamics.epochs", n_epochs * len(self.policies))
        reopts = sum(int(np.count_nonzero(o.reoptimized)) for o in outs)
        if reopts:
            obs.count("dynamics.reopt", reopts)
        infeasible = sum(int(np.count_nonzero(o.infeasible)) for o in outs)
        if infeasible:
            obs.count("dynamics.infeasible", infeasible)
        if shared:
            obs.count("dynamics.probe_shared", shared)
        return outs

    def _step_group(
        self,
        group: list[int],
        factors: np.ndarray,
        caps: np.ndarray,
        changed: np.ndarray,
        outs: tuple[SegmentSeries, ...],
    ) -> int:
        """Step the policies ``group`` through the segment together,
        filling in their ``outs``; returns how many policy-epochs another
        policy's probe served."""
        base_rtt = self.placed.topology.rtt
        delta: np.ndarray | None = None
        effective: np.ndarray | None = None
        matrices: dict[int, np.ndarray | None] = dict.fromkeys(group)
        value_at_reopt = dict.fromkeys(group, np.inf)
        # Last attempt was infeasible: keep trying.
        retry_pending = dict.fromkeys(group, False)

        telemetry = self.telemetry
        estimators: dict[int, TelemetryEstimator] = {}
        noise: dict[int, np.random.Generator] = {}
        if telemetry is not None:
            for p in group:
                estimators[p] = TelemetryEstimator(self.placed, telemetry)
                noise[p] = np.random.default_rng([telemetry.seed, 0x7E1E])
        # Each policy's probe strategy and the matrix it was built from:
        # built once per matrix put in force.
        built: dict[int, tuple[np.ndarray, ExplicitStrategy]] = {}
        shared = 0
        incidence = self.placed.incidence_counts  # (quorums, nodes)
        for i in range(factors.shape[0]):
            if delta is None or changed[i]:
                effective = effective_rtt(base_rtt, factors[i])
                delta = self.placed.delay_matrix_for(effective)
            decisions = dict.fromkeys(group, (delta, caps[i]))
            if telemetry is not None:
                # Probe the world with the strategies actually in force
                # (the uniform fallback before anything is), estimate,
                # and decide from the estimates only.
                in_force = {
                    p: self._uniform if m is None else m
                    for p, m in matrices.items()
                }
                probes = _group_equal(group, in_force)
                for first, *_ in probes:
                    source = in_force[first]
                    if first not in built or built[first][0] is not source:
                        built[first] = source, ExplicitStrategy(source)
                samples = probe_epoch(
                    self.placed,
                    tuple(built[first][1] for first, *_ in probes),
                    effective,
                    caps[i],
                    seed=telemetry.seed + i,
                )
                shared += len(group) - len(probes)
                for members, sample in zip(probes, samples):
                    for p in members:
                        estimator = estimators[p]
                        estimator.observe(sample, noise[p])
                        decision_delta = self.placed.delay_matrix_for(
                            estimator.rtt_estimate
                        )
                        decisions[p] = (
                            decision_delta,
                            estimator.capacity_estimate,
                        )
                        out = outs[p]
                        out.estimation_error[i] = float(
                            np.abs(decision_delta - delta).mean()
                            / max(float(delta.mean()), 1e-12)
                        )
                        out.staleness[i] = estimator.mean_staleness
                        out.probe_operations[i] = int(sample.counts.sum())
            for p in group:
                policy, out = self.policies[p], outs[p]
                decision_delta, decision_caps = decisions[p]
                matrix = matrices[p]
                if matrix is None or retry_pending[p]:
                    # Nothing in force yet, or the last attempt failed.
                    reopt = True
                else:
                    value_now = _expected_delay(matrix, decision_delta)
                    reopt = policy.should_reoptimize(
                        i, value_now, value_at_reopt[p]
                    )
                if reopt:
                    new_matrix, solves, builds = self._reoptimize(
                        p, decision_delta, decision_caps
                    )
                    out.lp_solves[i] = solves
                    out.assemblies[i] = builds
                    if new_matrix is None:
                        out.infeasible[i] = True
                        retry_pending[p] = True
                        if matrix is None:
                            matrix = self._uniform
                    else:
                        out.reoptimized[i] = True
                        retry_pending[p] = False
                        matrix = new_matrix
                        value_at_reopt[p] = _expected_delay(
                            matrix, decision_delta
                        )
                        if isinstance(policy, StaticPolicy):
                            # It never asks again: free its program now.
                            self._programs[p] = None
                    matrices[p] = matrix
                out.expected_delay[i] = _expected_delay(matrix, delta)
                loads = (matrix @ incidence).mean(axis=0)
                out.max_overload[i] = float(
                    np.maximum(loads - caps[i], 0.0).max()
                )
        return shared


def replay_segment(
    topology: Topology,
    system: QuorumSystem,
    assignment: np.ndarray,
    rtt_factors: np.ndarray,
    capacities: np.ndarray,
    rtt_changed: np.ndarray,
    policies: tuple[str, ...],
    telemetry: TelemetryConfig | None = None,
) -> tuple[SegmentSeries, ...]:
    """Module-level segment replay (picklable — the replay driver's grid
    point function): every policy of one measurement plane in lockstep.

    ``topology`` and ``assignment`` live in the segment's member node
    space; ``policies`` are spec strings (see :func:`parse_policy`), and
    one series per policy comes back, in order; ``telemetry`` switches
    the controller to closed-loop operation.
    """
    placed = PlacedQuorumSystem(system, Placement(assignment), topology)
    controller = AdaptiveController(
        placed,
        tuple(parse_policy(policy) for policy in policies),
        telemetry=telemetry,
    )
    with obs.span(
        "dynamics.segment",
        policies=",".join(policies),
        epochs=int(np.asarray(rtt_factors).shape[0]),
    ):
        return controller.run_segment(rtt_factors, capacities, rtt_changed)
