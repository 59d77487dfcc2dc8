"""Tests for the dynamics subsystem (`repro.dynamics`).

The two acceptance pins sit in :class:`TestReplayDeterminism` and
:class:`TestIncrementalVsCold`: replays are bit-identical for any worker
count, and the incremental controller's strategy objectives match a
cold-reassembly-per-epoch controller within 1e-9 at every re-optimization
epoch — on both LP backends. That cold controller exists only here, as
the reference :func:`_cold_replay` swaps in.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import replay_policy_alone

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.dynamics import controller as controller_module
from repro.dynamics.controller import (
    AdaptiveController,
    PeriodicPolicy,
    SegmentSeries,
    StaticPolicy,
    ThresholdPolicy,
    _lockstep_groups,
    parse_policy,
)
from repro.dynamics.events import (
    CapacityEvent,
    ChurnEvent,
    RttDriftEvent,
    ScenarioTrace,
    effective_rtt,
)
from repro.dynamics.replay import CLAIRVOYANT, replay, simulate_placements
from repro.dynamics.scenarios import (
    combine,
    diurnal_scenario,
    flash_crowd_scenario,
    partition_heal_scenario,
)
from repro.dynamics.telemetry import TelemetryConfig
from repro.errors import DynamicsError
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import ResultCache
from repro.runtime.runner import GridRunner
from repro.strategies.lp_optimizer import StrategyProgram

GRID = GridQuorumSystem(2)

def _mixed_trace(topology, n_epochs=6):
    """Drift + capacity crunch + one partition/heal on a small topology."""
    n = topology.n_nodes
    rng = np.random.default_rng(5)
    events = [
        RttDriftEvent(
            epoch=t, factors=1.0 + 0.3 * rng.uniform(-1, 1, size=n)
        )
        for t in range(1, n_epochs)
    ]
    crunched = np.full(n, 1.0)
    crunched[: n // 2] = 0.85
    events.append(CapacityEvent(epoch=2, capacities=crunched))
    events.append(CapacityEvent(epoch=4, capacities=np.ones(n)))
    events.append(ChurnEvent(epoch=3, node=n - 1, up=False))
    events.append(ChurnEvent(epoch=5, node=n - 1, up=True))
    return ScenarioTrace(n, n_epochs, events)


class TestTraceValidation:
    def test_epoch_out_of_range(self):
        with pytest.raises(DynamicsError):
            ScenarioTrace(4, 3, [ChurnEvent(epoch=3, node=0, up=False)])

    def test_duplicate_scalar_event_per_epoch_rejected(self):
        with pytest.raises(DynamicsError, match="ambiguous"):
            ScenarioTrace(
                2,
                4,
                [
                    RttDriftEvent(epoch=1, factors=[1.0, 1.1]),
                    RttDriftEvent(epoch=1, factors=[1.2, 1.0]),
                ],
            )

    def test_vector_shape_must_match_node_space(self):
        with pytest.raises(DynamicsError):
            ScenarioTrace(3, 4, [CapacityEvent(epoch=0, capacities=[1.0])])

    def test_churn_must_alternate(self):
        with pytest.raises(DynamicsError, match="already"):
            ScenarioTrace(
                3,
                4,
                [
                    ChurnEvent(epoch=1, node=0, up=False),
                    ChurnEvent(epoch=2, node=0, up=False),
                ],
            )
        with pytest.raises(DynamicsError, match="already"):
            ScenarioTrace(3, 4, [ChurnEvent(epoch=1, node=0, up=True)])

    def test_cannot_empty_the_system(self):
        with pytest.raises(DynamicsError, match="no node up"):
            ScenarioTrace(
                2,
                4,
                [
                    ChurnEvent(epoch=1, node=0, up=False),
                    ChurnEvent(epoch=2, node=1, up=False),
                ],
            )

    def test_factors_must_be_positive(self):
        with pytest.raises(DynamicsError):
            RttDriftEvent(epoch=0, factors=[1.0, 0.0])


class TestStateFolding:
    def test_values_carry_forward_and_flags_mark_changes(self, line_topology):
        n = line_topology.n_nodes
        caps = np.full(n, 0.5)
        trace = ScenarioTrace(
            n,
            4,
            [
                RttDriftEvent(epoch=1, factors=np.full(n, 1.2)),
                CapacityEvent(epoch=2, capacities=caps),
                ChurnEvent(epoch=2, node=3, up=False),
            ],
        )
        states = trace.states(line_topology)
        assert states[0].rtt_changed and states[0].caps_changed
        assert np.all(states[0].rtt_factors == 1.0)
        assert states[1].rtt_changed and not states[1].caps_changed
        assert states[2].caps_changed and states[2].churned
        assert not states[3].rtt_changed
        # values persist until overwritten
        assert np.all(states[3].rtt_factors == 1.2)
        assert np.all(states[3].capacities == 0.5)
        assert not states[2].up[3] and not states[3].up[3]
        assert states[1].up[3]

    def test_segments_split_at_churn(self, line_topology):
        trace = _mixed_trace(line_topology, n_epochs=6)
        assert trace.segments() == [(0, 3), (3, 5), (5, 6)]

    def test_no_op_event_does_not_flag_change(self, line_topology):
        n = line_topology.n_nodes
        trace = ScenarioTrace(
            n, 3, [RttDriftEvent(epoch=1, factors=np.ones(n))]
        )
        assert not trace.states(line_topology)[1].rtt_changed

    def test_effective_rtt_symmetric_zero_diagonal(self, line_topology):
        factors = np.linspace(0.8, 1.4, line_topology.n_nodes)
        rtt = effective_rtt(line_topology.rtt, factors)
        assert np.allclose(rtt, rtt.T)
        assert np.all(np.diag(rtt) == 0.0)


class TestScenarioGenerators:
    def test_deterministic_for_fixed_seed(self, line_topology):
        for generator in (
            diurnal_scenario,
            flash_crowd_scenario,
            partition_heal_scenario,
        ):
            a = generator(line_topology, 8, seed=3)
            b = generator(line_topology, 8, seed=3)
            assert len(a.events) == len(b.events)
            for ea, eb in zip(a.events, b.events):
                assert type(ea) is type(eb)
                assert ea.epoch == eb.epoch

    def test_diurnal_factors_positive_and_oscillating(self, line_topology):
        trace = diurnal_scenario(line_topology, 12, seed=1, amplitude=0.4)
        factor_stack = np.stack(
            [e.factors for e in trace.events]
        )
        assert np.all(factor_stack > 0)
        assert factor_stack.std() > 0.05  # actually oscillates

    def test_flash_crowd_restores_base_capacities(self, line_topology):
        """One wave over 10 epochs crunches at epoch 1 for half its
        10-epoch stride and restores the base vector at epoch 6."""
        trace = flash_crowd_scenario(line_topology, 10, seed=2, depth=0.5)
        states = trace.states(line_topology)
        assert np.all(states[0].capacities == line_topology.capacities)
        assert states[1].capacities.min() == pytest.approx(0.5)
        assert np.all(states[5].capacities == states[1].capacities)
        assert np.all(states[6].capacities == line_topology.capacities)

    def test_partition_heal_round_trips_membership(self, line_topology):
        trace = partition_heal_scenario(
            line_topology, 9, seed=4, region_size=3
        )
        states = trace.states(line_topology)
        assert states[2].up.all()
        assert states[3].up.sum() == line_topology.n_nodes - 3
        assert states[6].up.all()
        assert trace.segments() == [(0, 3), (3, 6), (6, 9)]

    @pytest.mark.parametrize("waves", [1, 2, 3, 7])
    def test_flash_crowd_waves_never_overlap(self, line_topology, waves):
        """Each wave lasts half its stride, so it restores the base vector
        before the next one crunches: the trace validates at every
        length, and every wave starts from the base capacities."""
        base = line_topology.capacities
        for n_epochs in range(1, 25):
            trace = flash_crowd_scenario(line_topology, n_epochs, waves=waves)
            states = trace.states(line_topology)
            crunches = [
                e.epoch
                for e in trace.events
                if not np.array_equal(e.capacities, base)
            ]
            for epoch in crunches:
                assert np.all(states[epoch - 1].capacities == base)

    def test_mixed_scenario_is_shared_and_deterministic(self, line_topology):
        """The CLI's --scenario mixed and fig_dyn replay one definition."""
        from repro.dynamics.scenarios import mixed_scenario

        a = mixed_scenario(line_topology, 8, seed=7)
        b = mixed_scenario(line_topology, 8, seed=7)
        assert len(a.events) == len(b.events)
        assert len(a.segments()) == 3  # partition + heal included

    def test_combine_rejects_mismatched_timelines(self, line_topology):
        with pytest.raises(DynamicsError):
            combine(
                diurnal_scenario(line_topology, 8, seed=1),
                diurnal_scenario(line_topology, 9, seed=1),
            )

    def test_combine_rejects_ambiguous_overlap(self, line_topology):
        with pytest.raises(DynamicsError, match="ambiguous"):
            combine(
                diurnal_scenario(line_topology, 6, seed=1),
                diurnal_scenario(line_topology, 6, seed=2),
            )


class TestPolicies:
    def test_parse_specs(self):
        assert isinstance(parse_policy("static"), StaticPolicy)
        assert parse_policy("periodic:3") == PeriodicPolicy(3)
        assert parse_policy("threshold:0.2") == ThresholdPolicy(0.2)
        assert parse_policy("clairvoyant") == PeriodicPolicy(1)

    def test_bad_specs_rejected(self):
        for spec in (
            "periodic", "periodic:x", "threshold:-1", "nope:1",
            "threshold:nan", "threshold:inf",  # would never re-optimize
            "periodic:0", "periodic:-3",  # period must be >= 1
            "threshold:0",  # zero degradation re-optimizes on noise
            "", "periodic:1:2", "threshold:",
        ):
            with pytest.raises(DynamicsError):
                parse_policy(spec)

    def test_threshold_triggers_only_past_the_bound(self):
        policy = ThresholdPolicy(0.10)
        assert policy.should_reoptimize(0, 0.0, np.inf)
        assert not policy.should_reoptimize(1, 104.0, 100.0)
        assert policy.should_reoptimize(1, 111.0, 100.0)

    def test_reopt_cadence_in_a_replay(self, clustered_topology):
        n = clustered_topology.n_nodes
        rng = np.random.default_rng(9)
        trace = ScenarioTrace(
            n,
            6,
            [
                RttDriftEvent(
                    epoch=t,
                    factors=1.0 + 0.25 * rng.uniform(-1, 1, size=n),
                )
                for t in range(1, 6)
            ],
        )
        result = replay(
            clustered_topology,
            GRID,
            trace,
            policies=("static", "periodic:2"),
        )
        assert result.series["static"].reopt_count == 1
        periodic = result.series["periodic:2"]
        assert list(periodic.reoptimized) == [
            True, False, True, False, True, False,
        ]
        clair = result.series[CLAIRVOYANT]
        assert clair.reopt_count == 6
        # single segment: exactly one assembly each under incremental mode
        assert int(clair.assemblies.sum()) == 1

    def test_regret_is_non_negative_under_drift_and_churn(
        self, clustered_topology
    ):
        """With capacities untouched, every policy's strategy is feasible
        at every epoch, so the clairvoyant is a true per-epoch floor."""
        n = clustered_topology.n_nodes
        rng = np.random.default_rng(9)
        events: list = [
            RttDriftEvent(
                epoch=t, factors=1.0 + 0.3 * rng.uniform(-1, 1, size=n)
            )
            for t in range(1, 6)
        ]
        events.append(ChurnEvent(epoch=3, node=n - 1, up=False))
        trace = ScenarioTrace(n, 6, events)
        result = replay(
            clustered_topology,
            GRID,
            trace,
            policies=("static", "threshold:0.05"),
        )
        for spec in result.policies:
            assert np.all(result.regret(spec) >= -1e-9)
            assert result.series[spec].max_overload.max() <= 1e-9

    def test_stale_strategy_overloads_through_a_crunch(
        self, clustered_topology
    ):
        """During a capacity crunch the static policy keeps its stale
        strategy — possibly cheaper on raw delay, but only by violating
        the tightened capacities, which the overload series exposes while
        the re-optimizer stays (numerically) feasible."""
        n = clustered_topology.n_nodes
        crunched = np.full(n, 0.8)
        trace = ScenarioTrace(
            n,
            4,
            [
                CapacityEvent(epoch=1, capacities=crunched),
                CapacityEvent(epoch=3, capacities=np.ones(n)),
            ],
        )
        result = replay(
            clustered_topology, GRID, trace, policies=("static",)
        )
        static = result.series["static"]
        clair = result.series[CLAIRVOYANT]
        assert static.max_overload[1:3].max() > 1e-6
        assert clair.max_overload.max() <= 1e-6

    def test_infeasible_epochs_recorded_and_recovered(
        self, clustered_topology
    ):
        n = clustered_topology.n_nodes
        starved = np.full(n, 0.05)  # far below any feasible profile
        trace = ScenarioTrace(
            n,
            4,
            [
                CapacityEvent(epoch=1, capacities=starved),
                CapacityEvent(epoch=3, capacities=np.ones(n)),
            ],
        )
        result = replay(
            clustered_topology, GRID, trace, policies=(CLAIRVOYANT,)
        )
        series = result.series[CLAIRVOYANT]
        assert list(series.infeasible) == [False, True, True, False]
        assert list(series.reoptimized) == [True, False, False, True]
        # the carried strategy keeps being evaluated through the outage
        assert np.all(np.isfinite(series.expected_delay))


class TestReplayValidation:
    def test_needs_a_policy(self, clustered_topology):
        trace = ScenarioTrace(clustered_topology.n_nodes, 2)
        with pytest.raises(DynamicsError):
            replay(clustered_topology, GRID, trace, policies=())

    def test_periodic_one_folds_into_clairvoyant(self, clustered_topology):
        """periodic:1 *is* the per-epoch re-optimizer: listing it must not
        replay the same policy twice under two names (or collide with the
        auto-added baseline)."""
        trace = ScenarioTrace(clustered_topology.n_nodes, 2)
        result = replay(
            clustered_topology, GRID, trace,
            policies=("periodic:1", CLAIRVOYANT),
        )
        assert set(result.series) == {CLAIRVOYANT}
        assert np.all(result.regret(CLAIRVOYANT) == 0.0)

    def test_closed_loop_periodic_one_is_its_own_policy(
        self, clustered_topology
    ):
        """A closed-loop periodic:1 re-optimizes every epoch from
        estimates: it is not the oracle baseline and keeps its own row."""
        trace = diurnal_scenario(clustered_topology, 4, seed=2)
        result = replay(
            clustered_topology, GRID, trace,
            policies=("static", "periodic:1"),
            telemetry=TelemetryConfig(noise=0.05, seed=3),
        )
        assert list(result.series) == ["static", "periodic:1", CLAIRVOYANT]
        assert result.policies == ("static", "periodic:1")
        assert result.series["periodic:1"].probe_operations.min() > 0
        assert result.series["periodic:1"].reoptimized.all()
        assert np.all(result.series[CLAIRVOYANT].probe_operations == 0)

    def test_runner_jobs_conflict_raises(self, clustered_topology):
        from repro.errors import ReproError

        trace = ScenarioTrace(clustered_topology.n_nodes, 2)
        with GridRunner() as runner:
            with pytest.raises(ReproError, match="jobs"):
                replay(
                    clustered_topology, GRID, trace, runner=runner, jobs=4
                )

    def test_runner_cache_attached_and_conflicts_raise(
        self, clustered_topology, tmp_path
    ):
        trace = ScenarioTrace(clustered_topology.n_nodes, 2)
        cache = ResultCache(tmp_path / "a")
        with GridRunner() as runner:
            replay(clustered_topology, GRID, trace, runner=runner,
                   cache=cache)
            assert runner.cache is None  # detached after the call
            assert cache.stores > 0
        from repro.errors import ReproError

        other = ResultCache(tmp_path / "b")
        with GridRunner(cache=cache) as runner:
            with pytest.raises(ReproError, match="cache"):
                replay(clustered_topology, GRID, trace, runner=runner,
                       cache=other)

    def test_trace_topology_size_mismatch(self, clustered_topology):
        trace = ScenarioTrace(clustered_topology.n_nodes + 1, 2)
        with pytest.raises(DynamicsError):
            replay(clustered_topology, GRID, trace)


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self, clustered_topology):
        trace = _mixed_trace(clustered_topology)
        return replay(
            clustered_topology, GRID, trace,
            policies=("static", "threshold:0.05"),
        )

    def test_unknown_policy_regret_is_tagged(self, result):
        """Regression: an unknown spec used to escape as a bare KeyError;
        it must be a ReproError-family failure naming the known specs."""
        with pytest.raises(DynamicsError, match="no-such-policy"):
            result.regret("no-such-policy")
        with pytest.raises(DynamicsError, match="threshold:0.05"):
            result.regret("no-such-policy")

    def test_cumulative_series_lengths_and_monotonicity(self, result):
        n = result.n_epochs
        for spec in result.series:
            series = result.series[spec]
            assert series.cumulative_solves.shape == (n,)
            assert series.cumulative_assemblies.shape == (n,)
            assert np.all(np.diff(series.cumulative_solves) >= 0)
            assert np.all(np.diff(series.cumulative_assemblies) >= 0)
            assert result.cumulative_regret(spec).shape == (n,)
        cum = result.cumulative_regret("static")
        assert cum[-1] == pytest.approx(float(result.regret("static").sum()))

    def test_segment_series_rejects_mismatched_lengths(self):
        kwargs = {
            name: np.zeros(4)
            for name in (
                "expected_delay", "reoptimized", "infeasible",
                "max_overload", "lp_solves", "assemblies",
                "estimation_error", "staleness", "probe_operations",
            )
        }
        SegmentSeries(**kwargs)  # consistent lengths are fine
        with pytest.raises(DynamicsError, match="epoch count"):
            SegmentSeries(**{**kwargs, "staleness": np.zeros(3)})
        with pytest.raises(DynamicsError, match="1-D"):
            SegmentSeries(**{**kwargs, "lp_solves": np.zeros((4, 1))})

    def test_timeline_series_is_the_stitched_segments(self, result):
        """Each policy's timeline is its segments' series end to end."""
        clair = result.series[CLAIRVOYANT]
        assert isinstance(clair, SegmentSeries)
        assert clair.expected_delay.shape == (result.n_epochs,)
        # one assembly per fixed-membership segment, at its first epoch
        starts = [start for start, _end in result.segments]
        assert list(np.flatnonzero(clair.assemblies)) == starts
        doubled = SegmentSeries.concatenate([clair, clair])
        assert np.array_equal(doubled.lp_solves, np.tile(clair.lp_solves, 2))
        assert doubled.reopt_count == 2 * clair.reopt_count


def _assert_series_identical(a, b) -> None:
    assert np.array_equal(a.expected_delay, b.expected_delay)
    assert np.array_equal(a.reoptimized, b.reoptimized)
    assert np.array_equal(a.infeasible, b.infeasible)
    assert np.array_equal(a.max_overload, b.max_overload)
    assert np.array_equal(a.lp_solves, b.lp_solves)
    assert np.array_equal(a.assemblies, b.assemblies)
    assert np.array_equal(a.estimation_error, b.estimation_error)
    assert np.array_equal(a.staleness, b.staleness)
    assert np.array_equal(a.probe_operations, b.probe_operations)


#: Policies the lockstep property draws from (duplicates included).
_LOCKSTEP_SPECS = (
    "static",
    "periodic:1",
    "periodic:2",
    "periodic:3",
    "threshold:0.01",
    "threshold:0.05",
    "threshold:0.2",
)


@st.composite
def _lockstep_cases(draw):
    """A small random trace with churn and capacity crunches, and a
    policy list that may repeat a policy."""
    seed = draw(st.integers(0, 2**16))
    n_nodes, n_epochs = 8, draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    raw = np.round(rng.uniform(5.0, 80.0, size=(n_nodes, n_nodes)))
    raw = raw + raw.T
    np.fill_diagonal(raw, 0.0)
    topology = Topology(raw, metric_closure=False)
    events = [
        RttDriftEvent(
            epoch=t, factors=rng.uniform(0.6, 1.5, size=n_nodes)
        )
        for t in range(1, n_epochs)
        if draw(st.booleans())
    ]
    for t in draw(st.sets(st.integers(0, n_epochs - 1), max_size=2)):
        # Depth 0.3 makes every Grid 2x2 strategy overload: infeasible.
        depth = draw(st.sampled_from([0.3, 0.7, 1.0]))
        events.append(
            CapacityEvent(epoch=t, capacities=np.full(n_nodes, depth))
        )
    if n_epochs > 2 and draw(st.booleans()):
        leave = draw(st.integers(1, n_epochs - 1))
        events.append(ChurnEvent(epoch=leave, node=n_nodes - 1, up=False))
    trace = ScenarioTrace(n_nodes, n_epochs, events)
    specs = draw(
        st.lists(st.sampled_from(_LOCKSTEP_SPECS), min_size=1, max_size=5)
    )
    closed_loop = draw(st.booleans())
    # Programs per lockstep group: one, two, or every policy.
    width = draw(st.sampled_from([1, 2, 99]))
    return topology, trace, specs, closed_loop, seed, width


class TestLockstep:
    """One lockstep controller steps several policies; every policy's
    series equals the reference replay of that policy alone."""

    @given(case=_lockstep_cases())
    @settings(max_examples=30, deadline=None)
    def test_every_series_equals_the_policy_alone(self, case):
        topology, trace, specs, closed_loop, seed, width = case
        policies = tuple(parse_policy(spec) for spec in specs)
        telemetry = (
            TelemetryConfig(noise=0.05, seed=seed) if closed_loop else None
        )
        states = trace.states(topology)
        for start, end in trace.segments():
            up = states[start].up_nodes
            placed = PlacedQuorumSystem(
                GRID, Placement([0, 1, 2, 3]), topology.subtopology(up)
            )
            factors = np.stack(
                [states[t].rtt_factors[up] for t in range(start, end)]
            )
            caps = np.stack(
                [states[t].capacities[up] for t in range(start, end)]
            )
            changed = np.array(
                [states[t].rtt_changed for t in range(start, end)]
            )
            changed[0] = True
            seg_telemetry = (
                None
                if telemetry is None
                else replace(telemetry, seed=telemetry.seed + start)
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    controller_module,
                    "_LOCKSTEP_COLUMNS",
                    width * placed.n_nodes * GRID.num_quorums,
                )
                lockstep = AdaptiveController(
                    placed, policies, telemetry=seg_telemetry
                ).run_segment(factors, caps, changed)
            for policy, series in zip(policies, lockstep, strict=True):
                _assert_series_identical(
                    series,
                    replay_policy_alone(
                        placed, policy, factors, caps, changed, seg_telemetry
                    ),
                )

    def test_crunch_makes_epochs_infeasible(self, clustered_topology):
        """The property's deepest crunch does reach the infeasible path."""
        n = clustered_topology.n_nodes
        placed = PlacedQuorumSystem(
            GRID, Placement([0, 1, 2, 3]), clustered_topology
        )
        caps = np.ones((3, n))
        caps[1] = 0.3
        (series,) = AdaptiveController(
            placed, (parse_policy("periodic:1"),)
        ).run_segment(np.ones((3, n)), caps, np.ones(3, dtype=bool))
        assert series.infeasible.tolist() == [False, True, False]

    def test_probes_are_shared_and_batched(
        self, clustered_topology, monkeypatch
    ):
        """Policies that hold one strategy share its probe, and each epoch
        probes its distinct strategies in one pass."""
        n = clustered_topology.n_nodes
        placed = PlacedQuorumSystem(
            GRID, Placement([0, 1, 2, 3]), clustered_topology
        )
        passes = []
        probe = controller_module.probe_epoch

        def probe_spy(placed, strategies, *args, **kwargs):
            passes.append(len(strategies))
            return probe(placed, strategies, *args, **kwargs)

        monkeypatch.setattr(controller_module, "probe_epoch", probe_spy)
        specs = ("static", "threshold:0.2", "static", "periodic:1")
        tracer = obs.Tracer()
        rng = np.random.default_rng(3)
        with obs.tracing(tracer):
            AdaptiveController(
                placed,
                tuple(parse_policy(spec) for spec in specs),
                telemetry=TelemetryConfig(noise=0.05, seed=4),
            ).run_segment(
                rng.uniform(0.7, 1.4, size=(5, n)),
                np.ones((5, n)),
                np.ones(5, dtype=bool),
            )
        # One group (two programs: threshold:0.2 and periodic:1), one pass
        # per epoch; the two static policies always share.
        assert len(passes) == 5
        assert 1 <= min(passes) and max(passes) <= 3
        assert tracer.counters["dynamics.probe_shared"] == (
            len(specs) * 5 - sum(passes)
        )
        assert tracer.counters["dynamics.epochs"] == len(specs) * 5

    def test_groups_hold_at_most_two_programs(
        self, clustered_topology, monkeypatch
    ):
        """A controller keeps as many programs alive as the column budget
        holds (two here), plus a static policy's until its one
        successful solve."""
        n = clustered_topology.n_nodes
        placed = PlacedQuorumSystem(
            GRID, Placement([0, 1, 2, 3]), clustered_topology
        )
        monkeypatch.setattr(
            controller_module, "_LOCKSTEP_COLUMNS", 2 * n * GRID.num_quorums
        )
        specs = (
            "static",
            "threshold:0.01",
            "periodic:2",
            "threshold:0.2",
            "periodic:1",
        )
        controller = AdaptiveController(
            placed, tuple(parse_policy(spec) for spec in specs)
        )
        live, reoptimize = [], AdaptiveController._reoptimize

        def reoptimize_spy(self, index, delta, capacities):
            out = reoptimize(self, index, delta, capacities)
            live.append(sum(p is not None for p in self._programs))
            return out

        monkeypatch.setattr(AdaptiveController, "_reoptimize", reoptimize_spy)
        rng = np.random.default_rng(5)
        controller.run_segment(
            rng.uniform(0.7, 1.4, size=(4, n)),
            np.ones((4, n)),
            np.ones(4, dtype=bool),
        )
        assert max(live) == 2
        assert all(p is None for p in controller._programs)

    def test_groups_put_static_first_then_input_order(self):
        policies = [
            parse_policy(spec)
            for spec in (
                "periodic:1",
                "threshold:0.02",
                "static",
                "periodic:4",
                "threshold:0.2",
            )
        ]
        # Four programs of 1,250 columns (a planetlab-50 Grid 5x5) fit.
        assert _lockstep_groups(policies, 1_250) == [[2, 0, 1, 3, 4]]
        assert _lockstep_groups(policies, 1_700) == [[2, 0, 1], [3, 4]]
        assert _lockstep_groups(policies, 450) == [[2, 0, 1, 3, 4]]
        assert _lockstep_groups(policies, 4_025) == [[2, 0], [1], [3], [4]]
        assert _lockstep_groups(policies[:1], 1_250) == [[0]]
        assert _lockstep_groups(policies[2:3], 1_250) == [[0]]


class TestReplayDeterminism:
    """ISSUE acceptance: jobs=N bit-identical to jobs=1, both backends."""

    POLICIES = ("static", "threshold:0.05")

    def test_jobs_2_bit_identical_to_jobs_1(
        self, clustered_topology, lp_backend
    ):
        trace = _mixed_trace(clustered_topology)
        serial = replay(
            clustered_topology, GRID, trace, policies=self.POLICIES
        )
        with GridRunner(jobs=2) as runner:
            parallel = replay(
                clustered_topology, GRID, trace, policies=self.POLICIES,
                runner=runner,
            )
        assert set(serial.series) == set(parallel.series)
        for spec in serial.series:
            _assert_series_identical(
                serial.series[spec], parallel.series[spec]
            )
        for a, b in zip(serial.placements, parallel.placements):
            assert np.array_equal(a, b)

    def test_repeated_replays_identical(self, clustered_topology):
        trace = _mixed_trace(clustered_topology)
        first = replay(clustered_topology, GRID, trace)
        second = replay(clustered_topology, GRID, trace)
        for spec in first.series:
            _assert_series_identical(
                first.series[spec], second.series[spec]
            )

    def test_cache_round_trip_bit_identical(
        self, clustered_topology, tmp_path
    ):
        trace = _mixed_trace(clustered_topology)
        cache = ResultCache(tmp_path / "dyn")
        first = replay(clustered_topology, GRID, trace, cache=cache)
        stores = cache.stores
        assert stores > 0
        second = replay(clustered_topology, GRID, trace, cache=cache)
        assert cache.stores == stores  # every point answered from cache
        assert cache.hits >= stores
        for spec in first.series:
            _assert_series_identical(
                first.series[spec], second.series[spec]
            )


def _cold_reoptimize(self, index, delta, capacities):
    """Rebuild-and-solve-cold: a fresh program per re-optimization.

    A single-variant batch is exactly one cold solve — no anchor
    calibration — which is what a controller without the warm program
    would pay.
    """
    program = StrategyProgram(self.placed, delay_matrix=delta)
    strategy = program.solve_many([capacities])[0]
    matrix = None if strategy is None else strategy.matrix
    return matrix, program.lp_solves, 1


def _cold_replay(monkeypatch, *args, **kwargs):
    """:func:`replay` with the cold controller swapped in, in process."""
    with monkeypatch.context() as patch:
        patch.setattr(AdaptiveController, "_reoptimize", _cold_reoptimize)
        return replay(*args, jobs=1, **kwargs)


class TestIncrementalVsCold:
    """ISSUE acceptance: incremental strategy objectives within 1e-9 of
    cold re-assembly at every epoch, on both LP backends.

    The clairvoyant policy re-optimizes at *every* epoch, so its delay
    series is exactly the per-epoch sequence of strategy-LP objectives —
    the every-epoch comparison the acceptance bar names. Policies that
    carry a strategy across epochs are compared at their re-optimization
    epochs: between solves the two controllers legitimately hold
    different (equal-objective) vertices of degenerate optima, whose
    *evaluations* under later drifted delays may differ beyond solver
    tolerance.
    """

    def test_clairvoyant_objectives_match_every_epoch(
        self, clustered_topology, lp_backend, monkeypatch
    ):
        trace = _mixed_trace(clustered_topology)
        kwargs = dict(policies=(CLAIRVOYANT,))
        warm = replay(clustered_topology, GRID, trace, **kwargs)
        cold = _cold_replay(
            monkeypatch, clustered_topology, GRID, trace, **kwargs
        )
        gap = np.abs(
            warm.series[CLAIRVOYANT].expected_delay
            - cold.series[CLAIRVOYANT].expected_delay
        )
        assert gap.max() <= 1e-9
        # and the cold baseline really does reassemble per epoch
        assert int(cold.series[CLAIRVOYANT].assemblies.sum()) == trace.n_epochs
        assert (
            int(warm.series[CLAIRVOYANT].assemblies.sum())
            == len(trace.segments())
        )

    def test_policy_objectives_match_at_reopt_epochs(
        self, clustered_topology, lp_backend, monkeypatch
    ):
        trace = _mixed_trace(clustered_topology)
        kwargs = dict(policies=("static", "periodic:2", "threshold:0.05"))
        warm = replay(clustered_topology, GRID, trace, **kwargs)
        cold = _cold_replay(
            monkeypatch, clustered_topology, GRID, trace, **kwargs
        )
        for spec in warm.series:
            a, b = warm.series[spec], cold.series[spec]
            assert np.array_equal(a.reoptimized, b.reoptimized)
            solved = a.reoptimized
            assert solved.any()
            gap = np.abs(
                a.expected_delay[solved] - b.expected_delay[solved]
            )
            assert gap.max() <= 1e-9


class TestSimulatePlacements:
    """``dynamics --simulate-rate``: each segment's placement through the
    fluid simulator."""

    def test_one_conserving_row_per_segment(self, clustered_topology):
        trace = _mixed_trace(clustered_topology)
        result = replay(
            clustered_topology, GRID, trace, policies=("static",)
        )
        rows = simulate_placements(clustered_topology, GRID, trace, result)
        assert [row["segment"] for row in rows] == list(result.segments)
        states = trace.states(clustered_topology)
        for row in rows:
            start, _end = row["segment"]
            assert row["members"] == states[start].up_nodes.size
            assert row["requests_issued"] == (
                row["requests_processed"] + row["requests_in_flight"]
            )
            assert row["operations"] > 0
