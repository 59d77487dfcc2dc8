"""Extension benchmark: the strategy LP on large Majorities via candidates.

The paper's LP figures use the Grid because Majorities have C(n, q)
quorums. With the candidate-subsystem generator the same technique applies
to Majorities: at demand 16000 on Planetlab-50 the LP-over-candidates
should beat both the closest and balanced baselines for the (4t+1, 5t+1)
family the Q/U experiments use.

Also measures the batched LP backend on this workload: the candidate
sweep's levels solved as RHS variants of one assembled program vs one
fresh assembly + cold scipy solve per level.
"""

import numpy as np

from bench_lp_batched import _timed, scipy_backend

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import alpha_from_demand, evaluate
from repro.network.datasets import planetlab_50
from repro.placement.search import best_placement
from repro.quorums.threshold import MajorityKind, majority
from repro.strategies.candidates import candidate_subsystem
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)
from repro.quorums.load_analysis import optimal_load
from repro.strategies.lp_optimizer import StrategyProgram
from repro.strategies.simple import balanced_strategy, closest_strategy


def time_sweep_paths(sub, levels) -> tuple[float, float]:
    """(per-level seconds, batched seconds) for the candidate LP sweep."""
    level_list = [float(c) for c in levels]
    def per_level():
        with scipy_backend():
            return [StrategyProgram(sub).solve(c) for c in level_list]

    per_level_s, _ = _timed(per_level)
    batched_s, _ = _timed(
        lambda: StrategyProgram(sub).solve_many(level_list)
    )
    return per_level_s, batched_s


def run_comparison():
    topology = planetlab_50()
    system = majority(MajorityKind.QU, 4)  # n=21, q=17
    placed = best_placement(topology, system).placed
    alpha = alpha_from_demand(16000)

    closest_resp = evaluate(
        placed, closest_strategy(placed), alpha=alpha
    ).avg_response_time
    balanced_resp = evaluate(
        placed, balanced_strategy(placed), alpha=alpha
    ).avg_response_time

    sub = candidate_subsystem(placed, random_extra=16)
    levels = capacity_levels(optimal_load(system).l_opt, 5)
    sweep = sweep_uniform_capacities(sub, alpha, levels=levels)
    lp_resp = sweep.best.result.avg_response_time
    per_level_s, batched_s = time_sweep_paths(sub, levels)
    return (
        closest_resp,
        balanced_resp,
        lp_resp,
        sub.system.num_quorums,
        per_level_s,
        batched_s,
    )


def test_majority_lp_via_candidates(benchmark):
    (
        closest_resp,
        balanced_resp,
        lp_resp,
        n_candidates,
        per_level_s,
        batched_s,
    ) = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print("== extension: strategy LP on Majority (4t+1,5t+1), t=4, demand 16000 ==")
    print(f"   candidate quorums: {n_candidates}")
    print(f"   closest response:  {closest_resp:8.2f} ms")
    print(f"   balanced response: {balanced_resp:8.2f} ms")
    print(f"   LP response:       {lp_resp:8.2f} ms")
    print(f"   5-level sweep per-level: {per_level_s * 1000:8.1f} ms")
    print(f"   5-level sweep batched:   {batched_s * 1000:8.1f} ms "
          f"({per_level_s / batched_s:.2f}x)")

    assert lp_resp <= closest_resp + 1e-6
    assert lp_resp <= balanced_resp + 1e-6
    # batching doesn't lose (10% noise margin: on the scipy fallback only
    # assembly is amortized, so the two paths run nearly neck-and-neck)
    assert batched_s <= per_level_s * 1.1
