"""Microbenchmarks of the computational substrates.

These are real pytest-benchmark measurements (multiple rounds) of the
hot paths: the access-strategy LP, the fractional-placement LP, the
best-v0 search, the vectorized (4.1) delay broadcast, the grid-runtime
cache, exact order statistics, and the DES event loop.
"""

import numpy as np
import pytest

from repro.core.response_time import evaluate
from repro.core.strategy import ExplicitStrategy, ThresholdClosestStrategy
from repro.network.datasets import daxlist_161, planetlab_50
from repro.placement.fractional import FractionalProgram
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.order_stats import max_order_statistic_pmf
from repro.quorums.threshold import MajorityKind, majority
from repro.runtime.cache import ResultCache, content_key
from repro.sim.engine import Simulator
from repro.strategies.lp_optimizer import optimize_access_strategies


@pytest.fixture(scope="module")
def planetlab():
    return planetlab_50()


@pytest.fixture(scope="module")
def daxlist():
    return daxlist_161()


@pytest.fixture(scope="module")
def grid7_placed(planetlab):
    return best_placement(planetlab, GridQuorumSystem(7)).placed


def test_strategy_lp_grid7_planetlab(benchmark, grid7_placed):
    """LP (4.3)-(4.6): 50 clients x 49 quorums = 2450 variables."""
    benchmark(lambda: optimize_access_strategies(grid7_placed, 0.8))


def test_strategy_lp_grid10_daxlist(benchmark, daxlist):
    """LP (4.3)-(4.6) at daxlist scale: 161 x 100 = 16100 variables."""
    placed = best_placement(
        daxlist, GridQuorumSystem(10), candidates=np.arange(10)
    ).placed
    benchmark.pedantic(
        lambda: optimize_access_strategies(placed, 0.8),
        rounds=3,
        iterations=1,
    )


def test_fractional_placement_lp(benchmark, planetlab):
    """Single-client fractional placement LP for a 5x5 Grid: assembly,
    calibration and one solve of the request."""
    system = GridQuorumSystem(5)
    benchmark(
        lambda: FractionalProgram(planetlab, system, 0).solve(
            capacities=np.full(50, 0.8)
        )
    )


def test_best_placement_search_grid5(benchmark, planetlab):
    """Best-v0 search over all 50 candidates (Grid 5x5)."""
    system = GridQuorumSystem(5)
    benchmark.pedantic(
        lambda: best_placement(planetlab, system), rounds=3, iterations=1
    )


def test_response_time_evaluation(benchmark, grid7_placed):
    """One full (4.1)-(4.2) evaluation: loads + augmented delays."""
    strategy = ExplicitStrategy.uniform(grid7_placed)
    benchmark(lambda: evaluate(grid7_placed, strategy, alpha=112.0))


def test_augmented_delay_broadcast(benchmark, grid7_placed):
    """The vectorized (4.1) max-broadcast over 50 clients x 49 quorums."""
    costs = np.random.default_rng(0).uniform(0, 50, grid7_placed.n_nodes)
    grid7_placed.delay_matrix  # exclude one-time index and support builds
    benchmark(lambda: grid7_placed.augmented_delay_matrix(costs))


def test_threshold_closest_eval(benchmark, daxlist):
    """Vectorized closest-strategy evaluation on a 101-element Majority."""
    placed = best_placement(
        daxlist, majority(MajorityKind.QU, 20), candidates=np.arange(8)
    ).placed
    strategy = ThresholdClosestStrategy()
    clients = np.arange(daxlist.n_nodes)
    costs = np.random.default_rng(1).uniform(0, 50, daxlist.n_nodes)
    benchmark(
        lambda: strategy.expected_response_times(placed, costs, clients)
    )


def test_result_cache_roundtrip(benchmark, tmp_path):
    """One content-key + put + hit cycle of the grid result cache."""
    cache = ResultCache(tmp_path)
    payload = {"xs": tuple(range(32)), "ys": tuple(float(i) for i in range(32))}

    def roundtrip():
        key = content_key(topology="t" * 64, system="s" * 64, alpha=112.0)
        cache.put(key, payload)
        return cache.lookup(key)

    hit, value = benchmark(roundtrip)
    assert hit and value == payload


def test_order_stats_large(benchmark):
    """Exact pmf of the max of a random 41-subset of 51 — the big-Majority
    path."""
    benchmark(lambda: max_order_statistic_pmf(51, 41))


def test_des_event_throughput(benchmark):
    """Raw DES throughput: 100k self-rescheduling events."""

    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule(0.01, tick)

        for _ in range(16):
            sim.schedule(0.0, tick)
        sim.run(until=1e12, max_events=100_000)
        return count[0]

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == 100_000
