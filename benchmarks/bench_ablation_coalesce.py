"""Ablation: per-element vs coalesced load accounting (paper's future work).

The paper's conclusion sketches a model variation where "a server hosting
multiple universe elements would execute a request only once for all
elements it hosts", predicting it "can clearly improve the performance" of
many-to-one placements. This ablation quantifies that: response time of a
many-to-one Grid placement at demand 16000 under both load models.
"""

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.core.response_time import alpha_from_demand, evaluate
from repro.core.strategy import ExplicitStrategy
from repro.network.datasets import planetlab_50
from repro.placement.many_to_one import best_many_to_one_placement
from repro.quorums.grid import GridQuorumSystem


def run_ablation():
    topology = planetlab_50()
    system = GridQuorumSystem(5)
    alpha = alpha_from_demand(16000)
    search = best_many_to_one_placement(
        topology,
        system,
        capacities=np.full(50, 0.8),
        candidates=np.arange(12),
    )
    placed = search.placed
    strategy = ExplicitStrategy.uniform(placed)
    counted = evaluate(placed, strategy, alpha=alpha, coalesce=False)
    coalesced = evaluate(placed, strategy, alpha=alpha, coalesce=True)
    return placed, counted, coalesced


def test_coalescing_ablation(benchmark):
    placed, counted, coalesced = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    print()
    print("== ablation: per-element vs coalesced load (many-to-one 5x5) ==")
    print(f"   support size:          {placed.placement.support_set.size}")
    print(f"   response (per-element): {counted.avg_response_time:9.2f} ms")
    print(f"   response (coalesced):   {coalesced.avg_response_time:9.2f} ms")
    print(f"   max load (per-element): {counted.max_node_load:9.3f}")
    print(f"   max load (coalesced):   {coalesced.max_node_load:9.3f}")

    # Many-to-one placements always benefit from coalescing; the network
    # delay component is identical by construction.
    assert coalesced.avg_response_time <= counted.avg_response_time
    assert coalesced.avg_network_delay == counted.avg_network_delay
    assert coalesced.max_node_load <= counted.max_node_load
