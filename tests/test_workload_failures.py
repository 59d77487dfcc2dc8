"""Composition tests: open-loop Poisson workload + crash windows.

``sim/workload.py`` provides the arrival process, ``sim/failures.py`` the
crash schedule; this suite pins their composition through the generic
simulator's open-loop mode: arrivals keep coming while a node is down,
timeouts fire and resample, the balanced strategy keeps completing
operations through the outage, and the whole run is a pure function of
its seeds.
"""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import ThresholdBalancedStrategy
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.failures import CrashWindow, FailureSchedule
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.workload import PoissonArrivals


@pytest.fixture()
def maj_placed(line_topology):
    return PlacedQuorumSystem(
        ThresholdQuorumSystem(5, 3),
        Placement([0, 2, 4, 6, 8]),
        line_topology,
    )


def _run(maj_placed, seed=11, schedule=None, rate=0.02, duration=4000.0):
    sim = GenericQuorumSimulation(
        maj_placed,
        ThresholdBalancedStrategy(),
        client_nodes=np.repeat(np.array([0, 5, 9]), 2),
        service_time_ms=0.0,
        failures=schedule,
        timeout_ms=250.0 if schedule is not None else 0.0,
        seed=seed,
        arrivals=PoissonArrivals(rate_per_ms=rate, seed=seed + 1),
    )
    return sim, sim.run(duration_ms=duration)


class TestOpenLoopUnderCrash:
    SCHEDULE = [CrashWindow(4, 500.0, 2500.0)]

    def test_timeouts_fire_and_work_is_dropped(self, maj_placed):
        _sim, result = _run(
            maj_placed, schedule=FailureSchedule(list(self.SCHEDULE))
        )
        assert result.timeouts_total > 0
        assert result.requests_dropped > 0

    def test_balanced_strategy_recovers_during_the_outage(self, maj_placed):
        """Resampled quorums route around the dead node: operations keep
        completing strictly inside the crash window."""
        sim, result = _run(
            maj_placed, schedule=FailureSchedule(list(self.SCHEDULE))
        )
        assert result.operations_completed > 0
        inside = [
            r
            for c in sim.clients
            for r in c.records
            if 700.0 < r.completed_at_ms < 2400.0
        ]
        assert inside

    def test_open_loop_keeps_injecting_while_down(self, maj_placed):
        """Arrivals are independent of completions: the healthy and the
        degraded run issue the same first-attempt schedule (same arrival
        seed), so the degraded run completes no more, and with retries
        runs strictly slower on average."""
        _sim, healthy = _run(maj_placed, schedule=None)
        _sim, degraded = _run(
            maj_placed, schedule=FailureSchedule(list(self.SCHEDULE))
        )
        assert degraded.operations_completed <= healthy.operations_completed
        assert (
            degraded.stats.mean_response_ms > healthy.stats.mean_response_ms
        )

    def test_deterministic_under_fixed_seeds(self, maj_placed):
        runs = []
        for _ in range(2):
            sim, result = _run(
                maj_placed, schedule=FailureSchedule(list(self.SCHEDULE))
            )
            records = [
                (r.client_id, r.issued_at_ms, r.completed_at_ms,
                 r.network_delay_ms)
                for c in sim.clients
                for r in c.records
            ]
            runs.append(
                (
                    result.operations_completed,
                    result.timeouts_total,
                    result.requests_dropped,
                    records,
                )
            )
        assert runs[0] == runs[1]

    def test_seed_changes_the_run(self, maj_placed):
        _sim, a = _run(
            maj_placed, seed=11, schedule=FailureSchedule(list(self.SCHEDULE))
        )
        _sim, b = _run(
            maj_placed, seed=12, schedule=FailureSchedule(list(self.SCHEDULE))
        )
        assert (
            a.stats.mean_response_ms != b.stats.mean_response_ms
            or a.operations_completed != b.operations_completed
        )


class TestOpenLoopBasics:
    def test_each_arrival_is_one_operation_at_most(self, maj_placed):
        sim, result = _run(maj_placed, rate=0.01)
        assert all(len(c.records) <= 1 for c in sim.clients)
        assert result.operations_completed <= len(sim.clients)

    def test_round_robin_spreads_over_client_nodes(self, maj_placed):
        sim, _result = _run(maj_placed, rate=0.05)
        nodes = {c.node for c in sim.clients}
        assert nodes == {0, 5, 9}


class TestDynamicsTraceComposition:
    """Epoch-aligned crash windows — a node leaving at epoch 1 of 1000 ms
    epochs and rejoining at epoch 3, or never — drive the simulator and
    merge with manually added outages."""

    def test_trace_schedule_drives_the_simulator(self, maj_placed):
        schedule = FailureSchedule([CrashWindow(4, 1000.0, 3000.0)])
        assert schedule.windows == (CrashWindow(4, 1000.0, 3000.0),)
        _sim, result = _run(maj_placed, schedule=schedule)
        assert result.timeouts_total > 0
        assert result.operations_completed > 0

    def test_trace_schedule_merges_with_manual_windows(self, maj_placed):
        schedule = FailureSchedule([CrashWindow(4, 1000.0, 4000.0)])
        assert schedule.windows == (CrashWindow(4, 1000.0, 4000.0),)
        schedule.add(4, 2000.0, 5000.0)  # overlapping manual outage
        assert schedule.windows == (CrashWindow(4, 1000.0, 5000.0),)
        assert schedule.downtime(4, 5000.0) == pytest.approx(4000.0)


class TestRequestConservation:
    """Every request the clients issue must be accounted for exactly:
    ``issued == processed + dropped + in_flight``."""

    SCHEDULE = [CrashWindow(4, 500.0, 2500.0), CrashWindow(0, 1000.0, 1500.0)]

    @staticmethod
    def _conserved(result):
        return result.requests_issued == (
            result.requests_processed
            + result.requests_dropped
            + result.requests_in_flight
        )

    def test_identity_holds_without_failures(self, maj_placed):
        _sim, result = _run(maj_placed, rate=0.05)
        assert result.requests_issued > 0
        assert self._conserved(result)
        assert result.requests_in_flight >= 0

    def test_identity_holds_across_failure_windows(self, maj_placed):
        _sim, result = _run(
            maj_placed,
            rate=0.05,
            schedule=FailureSchedule(list(self.SCHEDULE)),
        )
        assert result.requests_dropped > 0
        assert self._conserved(result)
        assert result.requests_in_flight >= 0

    def test_in_flight_drains_to_zero_with_a_long_horizon(self, maj_placed):
        """Arrivals stop at the horizon but events keep firing until the
        clock runs out; with ample slack after the last arrival and the
        last crash window, nothing can still be in flight."""
        sim = GenericQuorumSimulation(
            maj_placed,
            ThresholdBalancedStrategy(),
            client_nodes=np.array([0, 5, 9]),
            service_time_ms=1.0,
            failures=FailureSchedule(list(self.SCHEDULE)),
            timeout_ms=250.0,
            seed=3,
            arrivals=PoissonArrivals(rate_per_ms=0.05, seed=4),
        )
        # Arrivals land in [0, 4000); +6000 ms of slack dwarfs every
        # RTT/timeout/retry chain on the 9-hop line.
        result = sim.run(duration_ms=10_000.0)
        assert self._conserved(result)
        assert result.requests_in_flight == 0


class TestServerCrashDropsQueue:
    """Unit-level pin of the `_Server` crash semantics the fluid backend's
    drop masks approximate: a crash takes the in-flight request *and* the
    queue with it, each drop counted exactly once."""

    def _server(self, line_topology, windows):
        from repro.sim.engine import Simulator
        from repro.sim.generic import _Access, _Server
        from repro.sim.network import SimNetwork

        sim = Simulator()
        network = SimNetwork(sim, line_topology)
        server = _Server(
            node=4,
            service_time_ms=10.0,
            sim=sim,
            network=network,
            failures=FailureSchedule(windows),
        )
        replies = []
        def access():
            return _Access(
                client_node=4, units=1,
                on_reply=lambda m: replies.append(sim.now),
            )
        return sim, server, access, replies

    def test_crash_drops_in_flight_and_queued(self, line_topology):
        sim, server, access, replies = self._server(
            line_topology, [CrashWindow(4, 5.0, 50.0)]
        )
        # Three requests before the crash: one enters service (reply due
        # at t=10, inside the window), two queue behind it.
        for t in (0.0, 1.0, 2.0):
            sim.schedule_at(t, lambda: server.on_request(access()))
        # One request lands mid-window (t=20): dropped on arrival.
        sim.schedule_at(20.0, lambda: server.on_request(access()))
        # One lands after recovery (t=60): processed normally.
        sim.schedule_at(60.0, lambda: server.on_request(access()))
        sim.run(until=100.0)

        issued = 5
        assert server.requests_dropped == 4  # 1 in flight + 2 queued + 1 down
        assert server.requests_processed == 1
        assert replies == [70.0]  # t=60 arrival + 10 ms service, same node
        assert not server.queue and not server.busy
        assert issued == server.requests_processed + server.requests_dropped


class TestWorkloadHelpers:
    """Satellite pins for the vectorized workload helpers."""

    def test_sample_until_deterministic_and_sorted(self):
        a = PoissonArrivals(rate_per_ms=0.7, seed=42)
        t1 = a.sample_until(5_000.0)
        t2 = PoissonArrivals(rate_per_ms=0.7, seed=42).sample_until(5_000.0)
        np.testing.assert_array_equal(t1, t2)
        assert t1.size > 0
        assert np.all(t1 < 5_000.0)
        assert np.all(np.diff(t1) >= 0)

    def test_sample_until_covers_an_underestimated_horizon(self):
        """The geometric-growth extension path: a tiny rate forces the
        initial chunk to undershoot the horizon repeatedly."""
        a = PoissonArrivals(rate_per_ms=0.0005, seed=9)
        times = a.sample_until(100_000.0)
        assert np.all(times < 100_000.0)
        assert np.all(np.diff(times) >= 0)
