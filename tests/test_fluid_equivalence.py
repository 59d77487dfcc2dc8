"""Distribution-level equivalence: fluid backend vs the event engine.

The fluid backend (:mod:`repro.sim.fluid`) promises the *same workload
model* as the discrete-event reference, evaluated in bulk. That promise
has two parts, and this suite pins both:

* **exact** request conservation — ``issued == processed + in_flight``
  holds to the integer on every run;
* **distributional** agreement — means and p50/p95/p99 percentiles of the
  response-time distribution match the event engine within a few percent
  on the bundled Planetlab topology and a synthetic WAN preset. (The
  backends use different random streams, so per-operation equality is
  neither expected nor meaningful — tolerances cover sampling noise at
  the test's operation counts.)
"""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.strategy import (
    ExplicitStrategy,
    ThresholdBalancedStrategy,
)
from repro.errors import SimulationError
from repro.network.generators import synthetic_wan
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.generic import GenericQuorumSimulation
from repro.sim.workload import PoissonArrivals


def _threshold_placed(topology, n=5, q=3):
    sites = np.argsort(topology.mean_distances())[:n]
    return PlacedQuorumSystem(
        ThresholdQuorumSystem(n, q),
        Placement([int(s) for s in sites]),
        topology,
    )


def _run_both(placed, strategy, duration_ms=4_000.0, warmup_ms=400.0,
              **kwargs):
    results = {}
    for backend in ("events", "fluid"):
        sim = GenericQuorumSimulation(
            placed, strategy, backend=backend, **kwargs
        )
        results[backend] = sim.run(
            duration_ms=duration_ms, warmup_ms=warmup_ms
        )
    return results["events"], results["fluid"]


def _assert_conserved(result):
    assert result.requests_issued == (
        result.requests_processed + result.requests_in_flight
    )


class TestBackendKnob:
    def test_unknown_backend_rejected(self, planetlab):
        placed = _threshold_placed(planetlab)
        with pytest.raises(SimulationError, match="backend"):
            GenericQuorumSimulation(
                placed, ThresholdBalancedStrategy(), backend="analytic"
            )

    def test_fluid_requires_open_loop_arrivals(self, planetlab):
        placed = _threshold_placed(planetlab)
        with pytest.raises(SimulationError, match="open-loop"):
            GenericQuorumSimulation(
                placed, ThresholdBalancedStrategy(), backend="fluid"
            )

    def test_default_backend_is_the_event_engine(self, planetlab):
        placed = _threshold_placed(planetlab)
        sim = GenericQuorumSimulation(placed, ThresholdBalancedStrategy())
        assert sim.backend == "events"


class TestLowLoadEquivalence:
    """With zero service time there is no queueing: response time is pure
    network delay, and the two backends sample the same distribution."""

    def test_planetlab_explicit_strategy(self, planetlab):
        placed = _threshold_placed(planetlab)
        ev, fl = _run_both(
            placed,
            ExplicitStrategy.uniform(placed),
            service_time_ms=0.0,
            seed=5,
            arrivals=PoissonArrivals(rate_per_ms=0.5, seed=6),
        )
        for r in (ev, fl):
            assert r.operations_completed > 1000
            _assert_conserved(r)
        assert fl.stats.mean_response_ms == pytest.approx(
            ev.stats.mean_response_ms, rel=0.05
        )
        assert fl.stats.mean_network_delay_ms == pytest.approx(
            ev.stats.mean_network_delay_ms, rel=0.05
        )

    def test_deterministic_closest_strategy_matches_exactly_in_mean(
        self, planetlab
    ):
        """Closest is deterministic per client node, so the only noise is
        which node each arrival lands on — tighter tolerance applies. The
        simulators take it in its explicit form, a point mass per client
        over the enumerated quorums."""
        placed = _threshold_placed(planetlab)
        ev, fl = _run_both(
            placed,
            ExplicitStrategy.closest(placed),
            service_time_ms=0.0,
            seed=2,
            arrivals=PoissonArrivals(rate_per_ms=0.5, seed=3),
        )
        assert fl.stats.mean_response_ms == pytest.approx(
            ev.stats.mean_response_ms, rel=0.02
        )


class TestModerateLoadEquivalence:
    """Per-server utilization ~0.5: queueing contributes, and the full
    percentile profile must still line up."""

    @pytest.fixture(scope="class")
    def pair(self, planetlab):
        placed = _threshold_placed(planetlab)
        return _run_both(
            placed,
            ThresholdBalancedStrategy(),
            service_time_ms=1.0,
            seed=11,
            arrivals=PoissonArrivals(rate_per_ms=0.8, seed=12),
            client_nodes=np.arange(planetlab.n_nodes),
        )

    def test_mean_and_percentiles_agree(self, pair):
        ev, fl = pair
        assert fl.stats.mean_response_ms == pytest.approx(
            ev.stats.mean_response_ms, rel=0.10
        )
        for key, got in fl.stats.percentiles().items():
            want = ev.stats.percentiles()[key]
            assert got == pytest.approx(want, rel=0.15), key

    def test_per_server_rates_and_utilizations_agree(self, pair):
        ev, fl = pair
        np.testing.assert_allclose(
            np.asarray(fl.per_node_request_rate),
            np.asarray(ev.per_node_request_rate),
            rtol=0.15,
        )
        np.testing.assert_allclose(
            np.asarray(fl.server_utilizations),
            np.asarray(ev.server_utilizations),
            rtol=0.15,
        )

    def test_conservation_is_exact_on_both(self, pair):
        for r in pair:
            assert r.requests_issued > 0
            _assert_conserved(r)


class TestWanPreset:
    def test_synthetic_wan_distributions_match(self):
        topo = synthetic_wan(200)
        placed = _threshold_placed(topo)
        ev, fl = _run_both(
            placed,
            ThresholdBalancedStrategy(),
            duration_ms=3_000.0,
            warmup_ms=300.0,
            service_time_ms=1.0,
            seed=21,
            arrivals=PoissonArrivals(rate_per_ms=1.0, seed=22),
            client_nodes=np.arange(topo.n_nodes),
        )
        assert fl.stats.mean_response_ms == pytest.approx(
            ev.stats.mean_response_ms, rel=0.10
        )
        assert fl.stats.p95_response_ms == pytest.approx(
            ev.stats.p95_response_ms, rel=0.15
        )
        for r in (ev, fl):
            _assert_conserved(r)


class TestFluidDeterminism:
    def _run(self, placed, seed):
        sim = GenericQuorumSimulation(
            placed,
            ThresholdBalancedStrategy(),
            service_time_ms=1.0,
            seed=seed,
            arrivals=PoissonArrivals(rate_per_ms=0.5, seed=99),
            backend="fluid",
        )
        return sim.run(duration_ms=3_000.0, warmup_ms=300.0)

    def test_same_seed_is_bit_identical(self, planetlab):
        placed = _threshold_placed(planetlab)
        a, b = self._run(placed, 13), self._run(placed, 13)
        assert a.stats == b.stats
        assert a.requests_issued == b.requests_issued
        assert np.array_equal(a.per_node_request_rate, b.per_node_request_rate)

    def test_seed_changes_the_run(self, planetlab):
        placed = _threshold_placed(planetlab)
        a, b = self._run(placed, 13), self._run(placed, 14)
        assert a.stats.mean_response_ms != b.stats.mean_response_ms

    def test_many_to_one_matches_events(self, planetlab):
        """Many-to-one placements charge a node one service unit per
        element it hosts; both backends must agree on that load
        accounting."""
        system = GridQuorumSystem(2)
        sites = np.argsort(planetlab.mean_distances())[:2]
        placed = PlacedQuorumSystem(
            system,
            Placement([int(sites[0]), int(sites[0]),
                       int(sites[1]), int(sites[1])]),
            planetlab,
        )
        ev, fl = _run_both(
            placed,
            ExplicitStrategy.uniform(placed),
            service_time_ms=1.0,
            seed=31,
            arrivals=PoissonArrivals(rate_per_ms=0.4, seed=32),
        )
        assert fl.stats.mean_response_ms == pytest.approx(
            ev.stats.mean_response_ms, rel=0.10
        )
        _assert_conserved(fl)
