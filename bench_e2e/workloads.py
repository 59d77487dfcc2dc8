"""The four benchmark workloads, as calls into the public library.

Each workload builds its inputs in :attr:`Workload.setup` (timed as set-up)
and then makes its entry-point calls (timed as the run). Every call and
every check is one operation. Figures run through ``run_figure`` exactly
as ``python -m repro figure`` does, with a fresh (cold) result cache.

Why these four: ``qu-sim`` is nearly all discrete-event simulation,
``model-figs`` is the analytic model (LP, evaluation, placement search)
with no simulation, ``closed-loop`` uses the same LP and sim layers in a
different shape (many tiny warm re-solves, fluid probes), and
``wan-plan`` is the only one that runs the process pool and the
shared-memory transport. A change to one layer therefore has a workload
that exercises it and one that must not move.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bench_e2e import checks
from repro.core.response_time import alpha_from_demand, evaluate
from repro.dynamics.replay import tune_threshold
from repro.dynamics.scenarios import mixed_scenario
from repro.dynamics.telemetry import TelemetryConfig
from repro.experiments.registry import run_figure
from repro.network.datasets import planetlab_50
from repro.network.generators import synthetic_wan
from repro.network.graph import Topology
from repro.placement.hierarchical import hierarchical_best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import ResultCache
from repro.strategies.capacity_sweep import sweep_uniform_capacities

Inputs = dict[str, Any]
Outputs = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``calls`` run in order, each ``fn(inputs, cache) -> output``;
    ``checks`` then run over ``{call name: output}``; ``quality`` extracts
    the workload's result-quality numbers (not timings) from the outputs;
    ``wrappers`` lists the layer wrappers (by label) that must fire.
    """

    name: str
    setup: Callable[[int | None], Inputs]
    calls: tuple[tuple[str, Callable[[Inputs, ResultCache], Any]], ...]
    checks: tuple[tuple[str, Callable[[Outputs], None]], ...]
    wrappers: tuple[str, ...]
    quality: Callable[[Outputs], dict[str, float]] = lambda outputs: {}


def _figure(figure_id: str, fast: bool, jobs: int = 1):
    def call(inputs: Inputs, cache: ResultCache) -> Any:
        return run_figure(figure_id, fast=fast, jobs=jobs, cache=cache)

    return figure_id, call


def _figure_check(figure_id: str):
    check = checks.FIGURE_CHECKS[figure_id]
    return f"{figure_id}.shape", lambda outputs: check(outputs[figure_id])


# -- qu-sim --------------------------------------------------------------------

_QU_FIGURES = ("fig_3_1", "fig_3_2a", "fig_3_2b", "fig_throughput")

QU_SIM = Workload(
    name="qu-sim",
    setup=lambda seed: {},
    calls=tuple(_figure(f, fast=True) for f in _QU_FIGURES),
    checks=tuple(_figure_check(f) for f in _QU_FIGURES),
    wrappers=(
        "Simulator.run",
        "GenericQuorumSimulation.run",
        "run_fluid",
        "best_placement",
        "evaluate",
        "ResultCache.lookup",
        "ResultCache.put",
        "resolve_topology",
        "planetlab_50",
    ),
)


# -- model-figs ----------------------------------------------------------------

_MODEL_FIGURES = (
    "fig_6_3",
    "fig_6_4",
    "fig_6_5",
    "fig_7_6",
    "fig_7_7",
    "fig_7_8",
    "fig_8_9",
)


def _model_reference(outputs: Outputs) -> None:
    figures = {f: outputs[f] for f in _MODEL_FIGURES}
    checks.matches_reference(
        checks.network_delay_series(figures),
        checks.load_reference()["model-figs"],
    )


MODEL_FIGS = Workload(
    name="model-figs",
    setup=lambda seed: {},
    calls=tuple(_figure(f, fast=True) for f in _MODEL_FIGURES),
    checks=tuple(_figure_check(f) for f in _MODEL_FIGURES)
    + (("network_delay.reference", _model_reference),),
    wrappers=(
        "BatchedProgram.__init__",
        "BatchedProgram.solve",
        "BatchedProgram.solve_many",
        "BatchedProgram.update_objective",
        "BatchedProgram.update_le_rows",
        "StrategyProgram.__init__",
        "sweep_uniform_capacities",
        "FractionalProgram.__init__",
        "best_placement",
        "evaluate",
        "iterative_optimize",
        "ResultCache.lookup",
        "ResultCache.put",
        "resolve_topology",
        "planetlab_50",
        "daxlist_161",
    ),
)


# -- closed-loop ---------------------------------------------------------------

#: Timeline length of the tuned scenario; 240 one-second epochs keep one
#: run near 2.5 s while still crossing all three churn segments.
CLOSED_LOOP_EPOCHS = 240
CLOSED_LOOP_THRESHOLDS = (0.02, 0.05, 0.1, 0.2)


def _closed_loop_setup(seed: int | None) -> Inputs:
    seed = 7 if seed is None else seed
    topology = planetlab_50()
    return {
        "topology": topology,
        "system": GridQuorumSystem(5),
        "trace": mixed_scenario(topology, CLOSED_LOOP_EPOCHS, seed=seed),
        "telemetry": TelemetryConfig(noise=0.05, seed=seed),
    }


def _tune(inputs: Inputs, cache: ResultCache) -> Outputs:
    tuning = tune_threshold(
        inputs["topology"],
        inputs["system"],
        inputs["trace"],
        thresholds=CLOSED_LOOP_THRESHOLDS,
        telemetry=inputs["telemetry"],
        baseline_policies=("static",),
        jobs=1,
        cache=cache,
    )
    series = tuning.result.series
    return {
        "best_spec": tuning.best_spec,
        "mean_regret": tuning.mean_regret,
        "reopt_counts": tuning.reopt_counts,
        "lp_solves": tuning.lp_solves,
        "expected_delay": {s: series[s].expected_delay for s in series},
        "mean_delay": {
            s: float(series[s].expected_delay.mean()) for s in series
        },
    }


def _mean_delays(result: Any, labels: tuple[str, ...]) -> dict[str, float]:
    return {
        label: float(np.mean(result.series_by_label(label).y))
        for label in labels
    }


def _fig_dyn_order(outputs: Outputs) -> None:
    means = _mean_delays(
        outputs["fig_dyn"], ("static", "threshold:0.05", "clairvoyant")
    )
    checks.adapting_pays(means, "threshold:0.05", strict=True)


def _fig_closed_loop_order(outputs: Outputs) -> None:
    # Plotted as static, the tuned threshold, clairvoyant. Not strict: on
    # this figure's seed no threshold beats static, so the tuner picks one
    # that never fires and ties it.
    tuned = outputs["fig_closed_loop"].series[1].label
    means = _mean_delays(
        outputs["fig_closed_loop"], ("static", tuned, "clairvoyant")
    )
    checks.adapting_pays(means, tuned, strict=False)


CLOSED_LOOP = Workload(
    name="closed-loop",
    setup=_closed_loop_setup,
    calls=(
        ("tune_threshold", _tune),
        _figure("fig_dyn", fast=False),
        _figure("fig_closed_loop", fast=False),
    ),
    checks=(
        (
            "tune_threshold.clairvoyant_floor",
            lambda o: checks.clairvoyant_floor(
                o["tune_threshold"]["mean_delay"]
            ),
        ),
        (
            "tune_threshold.tuned_is_best",
            lambda o: checks.tuned_is_best(
                o["tune_threshold"]["mean_regret"],
                o["tune_threshold"]["best_spec"],
            ),
        ),
        ("fig_dyn.order", _fig_dyn_order),
        ("fig_closed_loop.order", _fig_closed_loop_order),
    ),
    wrappers=(
        "BatchedProgram.__init__",
        "BatchedProgram.solve",
        "BatchedProgram.update_objective",
        "StrategyProgram.__init__",
        "best_placement",
        "evaluate",
        "GenericQuorumSimulation.run",
        "run_fluid",
        "probe_epoch",
        "TelemetryEstimator.observe",
        "AdaptiveController.run_segment",
        "ResultCache.lookup",
        "ResultCache.put",
        "resolve_topology",
        "planetlab_50",
    ),
    quality=lambda o: {
        "regret_ms": o["tune_threshold"]["mean_regret"][
            o["tune_threshold"]["best_spec"]
        ]
    },
)


# -- wan-plan ------------------------------------------------------------------

#: WAN size for the plan. The 5000-site preset peaks near 1.25 GB; 2000
#: sites keep the same O(n^2) code paths at about a third of the memory.
WAN_SITES = 2000
#: Client demand of the plan (alpha = 0.007 ms x demand), as in
#: ``python -m repro plan --demand 4000``.
PLAN_DEMAND = 4000
#: Worker processes, one per core of the two-core reference machine.
WAN_JOBS = 2


def _wan_setup(seed: int | None) -> Inputs:
    """The 2000-site preset, its sites renumbered by a seeded permutation.

    Regenerating the WAN per seed would change the size of the refined
    candidate pool (142 to 401 sites over three seeds) and with it the
    run time, by more than any bound could absorb. A renumbering is the
    same WAN to the search: same work, and the same network delays, which
    the ``plan.relabel_invariant`` check pins to the committed reference.
    """
    preset = synthetic_wan(WAN_SITES)
    topology = preset
    if seed is not None:
        order = np.random.default_rng(seed).permutation(WAN_SITES)
        topology = Topology(
            preset.rtt[np.ix_(order, order)],
            names=[preset.names[i] for i in order],
            metric_closure=False,
        )
    return {
        "topology": topology,
        "system": GridQuorumSystem(5),
        "alpha": alpha_from_demand(PLAN_DEMAND),
    }


def _plan(inputs: Inputs, cache: ResultCache) -> Outputs:
    """``python -m repro plan --hierarchical --strategy lp``."""
    search = hierarchical_best_placement(
        inputs["topology"], inputs["system"], jobs=WAN_JOBS
    )
    placed = search.placed
    sweep = sweep_uniform_capacities(placed, inputs["alpha"])
    result = evaluate(placed, sweep.best.strategy, alpha=inputs["alpha"])
    matrix = np.ascontiguousarray(sweep.best.strategy.matrix)
    return {
        "v0": search.v0,
        "assignment": placed.placement.assignment,
        "avg_network_delay": search.avg_network_delay,
        "delays_by_candidate": search.delays_by_candidate,
        "capacity": sweep.best.capacity,
        "strategy_sha256": hashlib.sha256(matrix.tobytes()).hexdigest(),
        "response_ms": result.avg_response_time,
        "network_delay_ms": result.avg_network_delay,
    }


WAN_PLAN = Workload(
    name="wan-plan",
    setup=_wan_setup,
    calls=(("plan", _plan), _figure("fig_scale", fast=False, jobs=WAN_JOBS)),
    checks=(
        ("plan.consistent", lambda o: checks.plan_consistent(o["plan"])),
        (
            "plan.relabel_invariant",
            lambda o: checks.matches_reference(
                checks.plan_delays(o["plan"]),
                checks.load_reference()["wan-plan"],
            ),
        ),
        (
            "fig_scale.exact_below_threshold",
            lambda o: checks.require(
                o["fig_scale"].metadata["worst_quality_ratio"] >= 1.0,
                "hierarchical search beat the exhaustive optimum",
            ),
        ),
    ),
    wrappers=(
        "hierarchical_best_placement",
        "cluster_sites",
        "best_placement",
        "evaluate",
        "sweep_uniform_capacities",
        "StrategyProgram.__init__",
        "BatchedProgram.__init__",
        "BatchedProgram.solve_many",
        "TopologyBroker.publish",
        "resolve_topology",
        "ResultCache.lookup",
        "ResultCache.put",
        "synthetic_wan",
    ),
    quality=lambda o: {"plan_response_ms": o["plan"]["response_ms"]},
)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (QU_SIM, MODEL_FIGS, CLOSED_LOOP, WAN_PLAN)
}
