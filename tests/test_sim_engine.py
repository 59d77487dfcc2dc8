"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        sim.run(until=10.0)
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.schedule(3.0, lambda t=tag: fired.append(t))
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run(until=10.0)
        assert seen == [2.5]
        assert sim.now == 10.0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, second)

        def second():
            fired.append(("second", sim.now))

        sim.schedule(1.0, first)
        sim.run(until=10.0)
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("early"))
        sim.schedule(15.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]
        sim.run(until=20.0)
        assert fired == ["early", "late"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_delay_rejected(self, bad):
        """Regression: ``delay < 0`` is False for NaN, so a NaN event used
        to slip through and silently corrupt heap ordering."""
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        assert sim.pending_events == 0

    def test_nan_event_cannot_corrupt_heap_order(self):
        """With NaN rejected, surrounding events still fire in order."""
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: fired.append("nan"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run(until=10.0)
        assert fired == ["a", "b"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(1.0, sim.reserve(), lambda: None)

    def test_run_needs_bound(self):
        with pytest.raises(SimulationError):
            Simulator().run()

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_time_bound_rejected(self, bad):
        """Regression: ``time > nan`` is False, so a NaN bound bounded
        nothing and a budgeted run spent its whole budget."""
        sim = Simulator()
        fired = []

        def loop():
            fired.append(sim.now)
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match=str(bad)):
            sim.run(until=bad, max_events=5_000)
        assert fired == []
        assert sim.now == 0.0


class TestReservedSlots:
    def test_reserved_event_fires_in_reservation_order(self):
        """An event pushed under a reserved number ties as if it had been
        scheduled when the number was reserved."""
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("before"))
        slot = sim.reserve()
        sim.schedule(5.0, lambda: fired.append("after"))
        sim.schedule_reserved(5.0, slot, lambda: fired.append("reserved"))
        sim.run(until=10.0)
        assert fired == ["before", "reserved", "after"]

    def test_unused_reservations_shift_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        for _ in range(3):
            sim.reserve()
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        assert fired == ["a", "b"]
        assert sim.events_processed == 2

    @pytest.mark.parametrize(
        "bad", [2.999, float("inf"), float("-inf"), float("nan")]
    )
    def test_time_before_now_or_non_finite_rejected(self, bad):
        sim = Simulator()
        sim.run(until=3.0)
        slot = sim.reserve()
        with pytest.raises(SimulationError):
            sim.schedule_reserved(bad, slot, lambda: None)
        assert sim.pending_events == 0
        sim.schedule_reserved(3.0, slot, lambda: None)
        assert sim.pending_events == 1

    def test_slot_not_reserved_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="not reserved"):
            sim.schedule_reserved(1.0, 0, lambda: None)
        slot = sim.reserve()
        for bad in (slot + 1, -1):
            with pytest.raises(SimulationError, match="not reserved"):
                sim.schedule_reserved(1.0, bad, lambda: None)
        assert sim.pending_events == 0


class TestDeterminism:
    """ISSUE satellite: the kernel must be deterministic for a fixed seed."""

    def test_simultaneous_events_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        # Interleave two batches at the same timestamp; sequence numbers,
        # not insertion batch, dictate the firing order.
        for i in range(3):
            sim.schedule(7.0, lambda i=i: fired.append(("a", i)))
        for i in range(3):
            sim.schedule_reserved(
                7.0, sim.reserve(), lambda i=i: fired.append(("b", i))
            )
        sim.run(until=10.0)
        assert fired == [
            ("a", 0), ("a", 1), ("a", 2),
            ("b", 0), ("b", 1), ("b", 2),
        ]

    def test_identical_runs_process_identical_event_counts(self):
        def drive() -> tuple[int, float]:
            sim = Simulator()
            count = [0]

            def tick():
                count[0] += 1
                if count[0] % 7:
                    sim.schedule(0.5, tick)

            for i in range(5):
                sim.schedule(0.1 * i, tick)
            sim.run(until=50.0)
            return sim.events_processed, sim.now

        assert drive() == drive()

    def test_fixed_seed_qu_runs_identical(self, planetlab):
        from repro.qu.service import QUService

        def drive() -> tuple[int, int, float]:
            service = QUService(
                planetlab,
                server_nodes=list(range(6)),
                quorum_size=5,
                seed=42,
            )
            for site in (10, 20, 30):
                service.add_client(site)
            service.run(duration_ms=400.0)
            records = service.all_records()
            return (
                service.sim.events_processed,
                len(records),
                sum(r.response_time_ms for r in records),
            )

        assert drive() == drive()

    def test_fixed_seed_qu_experiment_identical(self, planetlab):
        from repro.sim.experiment import QUExperimentConfig, run_qu_experiment

        config = QUExperimentConfig(
            t=1, clients_per_site=2, duration_ms=400.0,
            warmup_ms=80.0, seed=42,
        )
        a = run_qu_experiment(planetlab, config)
        b = run_qu_experiment(planetlab, config)
        assert a.operations_completed == b.operations_completed
        assert a.stats.mean_response_ms == b.stats.mean_response_ms
        assert a.stats.mean_network_delay_ms == b.stats.mean_network_delay_ms

    def test_different_seeds_differ(self, planetlab):
        from repro.sim.experiment import QUExperimentConfig, run_qu_experiment

        base = dict(
            t=1, clients_per_site=2, duration_ms=400.0, warmup_ms=80.0
        )
        a = run_qu_experiment(planetlab, QUExperimentConfig(seed=1, **base))
        b = run_qu_experiment(planetlab, QUExperimentConfig(seed=2, **base))
        assert a.stats.mean_response_ms != b.stats.mean_response_ms


class TestBudgets:
    def test_max_events_stops_early(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(until=100.0, max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run(until=100.0)
        assert sim.events_processed == 4

    def test_runaway_self_scheduling_bounded(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        sim.run(until=1e9, max_events=100)
        assert sim.events_processed == 100
