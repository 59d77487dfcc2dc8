"""Shared helpers for benchmarks replaying ``iterative_optimize`` LP work.

``bench_fractional_lp`` and ``bench_obs_overhead`` both reconstruct the
(capacities, strategy) solve schedule of real iterative runs and replay it
through a warm :class:`~repro.placement.fractional.FractionalFamily`. The
reconstruction lives here once so the two benchmark records are guaranteed
to measure the same workload.
"""

from __future__ import annotations

import numpy as np

from repro.core.iterative import iterative_optimize
from repro.placement.fractional import FractionalFamily


def solve_schedule(topology, system, candidates, levels, max_iterations):
    """(capacities, strategy) per iteration of real iterative runs.

    Runs ``iterative_optimize`` once per capacity level and reconstructs
    the global strategy each iteration's placement phase solved under:
    uniform for iteration 1, the average of the previous iteration's
    per-client strategies afterwards. Also warms all lazily-cached
    substrate (distance rows, delay matrices, incidence counts) so the
    replays that follow see identical state.
    """
    schedule = []
    total_iterations = 0
    m = system.num_quorums
    for level in levels:
        result = iterative_optimize(
            topology,
            system,
            capacities=float(level),
            alpha=0.0,
            candidates=candidates,
            max_iterations=max_iterations,
        )
        total_iterations += result.iterations_run
        caps = np.full(topology.n_nodes, float(level))
        strategy = np.full(m, 1.0 / m)
        for record in result.history:
            schedule.append((caps, strategy))
            strategy = record.strategy.matrix.mean(axis=0)
    return schedule, total_iterations


def replay_family(topology, system, candidates, schedule):
    """Replay a schedule through one warm family (per-candidate programs
    assembled once, later requests anchored re-solves)."""
    family = FractionalFamily(topology, system)
    solutions = []
    for caps, strategy in schedule:
        for v0 in candidates:
            solutions.append(
                family.program(int(v0)).solve(
                    capacities=caps, strategy=strategy
                )
            )
    return solutions
