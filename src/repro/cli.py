"""Command-line interface for placement planning.

``python -m repro plan`` runs the full pipeline — topology, quorum system,
placement, strategy tuning — and prints a deployment plan: which sites host
elements, which strategy clients should use, and the predicted response
time. Subcommands::

    python -m repro topologies
    python -m repro systems --max-universe 49
    python -m repro plan --topology planetlab-50 --system grid:5 \
        --demand 4000 --strategy lp
    python -m repro plan --system majority:simple:3 --strategy closest
    python -m repro plan --system grid:4 --many-to-one 0.8
    python -m repro figure fig_6_3 --fast --jobs 4
    python -m repro figure fig_7_6 --no-cache
    python -m repro figure all --fast --jobs 4
    python -m repro dynamics --scenario mixed --epochs 24 --jobs 2
    python -m repro dynamics --scenario diurnal --policies static,threshold:0.1
    python -m repro dynamics --scenario mixed --simulate-rate 0.5
    python -m repro dynamics --scenario diurnal --closed-loop --noise 0.1
    python -m repro dynamics --closed-loop --tune-thresholds 0.02,0.05,0.2
    python -m repro figure fig_8_9 --fast --jobs 2 --trace run.jsonl
    python -m repro trace summarize run.jsonl --top 10
    python -m repro trace summarize run.jsonl --check

``--jobs`` parallelizes the independent units of work (placement
candidates for ``plan``, grid points for ``figure``) over worker
processes; ``figure`` results are cached on disk by a content hash of
their inputs unless ``--no-cache`` is given. A figure run uses exactly
one process pool no matter how deep the work nests: a grid point's inner
placement searches run inline in the worker that evaluates it. Results
are identical for every ``--jobs`` value.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis.fault_tolerance import crash_tolerance
from repro.core.response_time import alpha_from_demand, evaluate
from repro.core.strategy import ExplicitStrategy
from repro.dynamics.replay import replay_spec, simulate_placements, tuning_spec
from repro.dynamics.telemetry import TelemetryConfig
from repro.dynamics.scenarios import (
    diurnal_scenario,
    flash_crowd_scenario,
    mixed_scenario,
    partition_heal_scenario,
)
from repro.errors import ReproError
from repro.experiments.registry import FIGURES, run_figure
from repro.network.datasets import (
    available_topologies,
    load_topology,
    topology_sites,
)
from repro.obs import tracer as obs
from repro.obs.summarize import check as check_trace
from repro.obs.summarize import summarize as summarize_trace
from repro.placement.hierarchical import hierarchical_best_placement
from repro.placement.many_to_one import best_many_to_one_placement
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.quorums.threshold import MajorityKind, majority
from repro.runtime.cache import ResultCache
from repro.runtime.runner import GridRunner
from repro.strategies.capacity_sweep import sweep_uniform_capacities
from repro.strategies.simple import balanced_strategy, closest_strategy

__all__ = ["main", "parse_system"]

_MAJORITY_ALIASES = {
    "simple": MajorityKind.SIMPLE,
    "bft": MajorityKind.BFT,
    "qu": MajorityKind.QU,
}


def parse_system(spec: str):
    """Parse a system spec: ``grid:<k>`` or ``majority:<kind>:<t>``.

    >>> parse_system("grid:3").name
    'Grid 3x3'
    >>> parse_system("majority:qu:2").universe_size
    11
    """
    parts = spec.lower().split(":")
    if parts[0] == "grid" and len(parts) == 2:
        return GridQuorumSystem(int(parts[1]))
    if parts[0] == "majority" and len(parts) == 3:
        kind = _MAJORITY_ALIASES.get(parts[1])
        if kind is None:
            raise ReproError(
                f"unknown majority kind {parts[1]!r}; "
                f"choose from {sorted(_MAJORITY_ALIASES)}"
            )
        return majority(kind, int(parts[2]))
    raise ReproError(
        f"cannot parse system spec {spec!r}; expected 'grid:<k>' or "
        "'majority:<simple|bft|qu>:<t>'"
    )


#: Listing stats are only computed for topologies at most this large; the
#: scale presets materialize O(n^2) matrices, and ``topologies`` must stay
#: instant. Matches the hierarchical search's exact-search threshold.
_STATS_MAX_SITES = 200

#: Policies ``dynamics`` replays when ``--policies`` is not given.
_DEFAULT_POLICIES = "static,periodic:4,threshold:0.05"


def _cmd_topologies(_args) -> int:
    for name in available_topologies():
        n_sites = topology_sites(name)
        if n_sites > _STATS_MAX_SITES:
            print(f"{name:>14}: {n_sites:4d} sites (generated on demand)")
            continue
        topo = load_topology(name)
        median_avg = topo.mean_distances()[topo.median()]
        print(
            f"{name:>14}: {topo.n_nodes:4d} sites, "
            f"median avg RTT {median_avg:6.1f} ms"
        )
    return 0


def _cmd_systems(args) -> int:
    print(f"{'spec':>22} {'universe':>9} {'quorum':>7} {'L_opt':>7}")
    k = 2
    while k * k <= args.max_universe:
        g = GridQuorumSystem(k)
        print(
            f"{'grid:' + str(k):>22} {g.universe_size:>9} "
            f"{g.min_quorum_size:>7} {optimal_load(g).l_opt:>7.3f}"
        )
        k += 1
    for alias, kind in _MAJORITY_ALIASES.items():
        t = 1
        while True:
            system = majority(kind, t)
            if system.universe_size > args.max_universe:
                break
            print(
                f"{'majority:' + alias + ':' + str(t):>22} "
                f"{system.universe_size:>9} {system.quorum_size:>7} "
                f"{optimal_load(system).l_opt:>7.3f}"
            )
            t += 1
    return 0


def _pick_strategy(placed, name: str, alpha: float):
    if name == "closest":
        return closest_strategy(placed), "closest"
    if name == "balanced":
        return balanced_strategy(placed), "balanced"
    if name == "lp":
        if not placed.system.is_enumerable or placed.is_threshold:
            # Large Majorities: LP needs enumeration; fall back to the
            # better of the two simple strategies.
            candidates = [
                (closest_strategy(placed), "closest"),
                (balanced_strategy(placed), "balanced"),
            ]
            best = min(
                candidates,
                key=lambda su: evaluate(
                    placed, su[0], alpha=alpha
                ).avg_response_time,
            )
            return best[0], f"{best[1]} (LP unavailable for thresholds)"
        sweep = sweep_uniform_capacities(placed, alpha)
        return (
            sweep.best.strategy,
            f"LP-tuned (capacity {sweep.best.capacity:.3f})",
        )
    raise ReproError(f"unknown strategy {name!r}")


def _cmd_plan(args) -> int:
    topology = load_topology(args.topology)
    system = parse_system(args.system)
    alpha = alpha_from_demand(args.demand)

    if args.many_to_one is not None:
        with GridRunner(jobs=args.jobs) as runner:
            search = best_many_to_one_placement(
                topology,
                system,
                capacities=np.full(topology.n_nodes, args.many_to_one),
                candidates=np.argsort(topology.mean_distances())[:15],
                runner=runner,
            )
        placed = search.placed
        placement_kind = f"many-to-one (cap {args.many_to_one})"
        strategy, strategy_name = (
            ExplicitStrategy.uniform(placed),
            "balanced (many-to-one)",
        )
    elif args.hierarchical:
        search = hierarchical_best_placement(
            topology, system, jobs=args.jobs
        )
        placed = search.placed
        placement_kind = (
            "one-to-one (exhaustive search)"
            if search.exhaustive
            else "one-to-one (hierarchical, "
            f"{search.n_candidates}/{search.n_sites} candidates)"
        )
        strategy, strategy_name = _pick_strategy(
            placed, args.strategy, alpha
        )
    else:
        placed = best_placement(topology, system, jobs=args.jobs).placed
        placement_kind = "one-to-one"
        strategy, strategy_name = _pick_strategy(
            placed, args.strategy, alpha
        )

    result = evaluate(placed, strategy, alpha=alpha)

    print(f"deployment plan — {system.name} on {args.topology}")
    print(f"  placement:        {placement_kind}")
    print(f"  client demand:    {args.demand} (alpha {alpha:.1f} ms)")
    print(f"  strategy:         {strategy_name}")
    print(f"  response time:    {result.avg_response_time:.1f} ms")
    print(f"  network delay:    {result.avg_network_delay:.1f} ms")
    print(f"  max node load:    {result.max_node_load:.3f}")
    print(f"  crash tolerance:  {crash_tolerance(placed)} node(s)")
    print("  hosting sites:")
    assignment = placed.placement.assignment
    for w in placed.placement.support_set:
        elements = np.flatnonzero(assignment == w)
        label = ",".join(str(int(u)) for u in elements)
        print(
            f"    {topology.names[int(w)]:>18} "
            f"(load {result.node_loads[int(w)]:.3f}) "
            f"elements [{label}]"
        )
    return 0


def _cmd_figure(args) -> int:
    max_bytes = (
        None
        if args.cache_max_mb is None
        else int(args.cache_max_mb * 1024 * 1024)
    )
    if max_bytes is not None and max_bytes <= 0:
        raise ReproError(
            f"--cache-max-mb must be positive, got {args.cache_max_mb}"
        )
    cache = (
        None
        if args.no_cache
        else ResultCache(args.cache_dir, max_size_bytes=max_bytes)
    )
    targets = sorted(FIGURES) if args.figure_id == "all" else [args.figure_id]
    for index, figure_id in enumerate(targets):
        result = run_figure(
            figure_id, fast=args.fast, jobs=args.jobs, cache=cache
        )
        if index:
            print()
        print(result.render_text())
    if cache is not None:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"{cache.stores} store(s) at {cache.root}"
        )
    return 0


def _dynamics_trace(topology, scenario: str, epochs: int, seed: int):
    if scenario == "diurnal":
        return diurnal_scenario(topology, epochs, seed=seed)
    if scenario == "flash-crowd":
        return flash_crowd_scenario(topology, epochs, seed=seed, depth=0.6)
    if scenario == "partition-heal":
        return partition_heal_scenario(
            topology, epochs, seed=seed,
            region_size=max(1, topology.n_nodes // 8),
        )
    # mixed: the same definition the fig_dyn figure replays
    return mixed_scenario(topology, epochs, seed=seed)


def _cmd_dynamics(args) -> int:
    topology = load_topology(args.topology)
    system = parse_system(args.system)
    if args.epochs < 1:
        raise ReproError(f"--epochs must be positive, got {args.epochs}")
    if args.candidates < 0:
        raise ReproError(
            f"--candidates must be >= 0, got {args.candidates}"
        )
    if not (np.isfinite(args.simulate_rate) and args.simulate_rate >= 0):
        raise ReproError(
            f"--simulate-rate must be finite and >= 0, got "
            f"{args.simulate_rate}"
        )
    if args.noise is not None and not args.closed_loop:
        raise ReproError("--noise requires --closed-loop")
    if args.tune_thresholds is not None and not args.closed_loop:
        raise ReproError("--tune-thresholds requires --closed-loop")
    if args.tune_thresholds is not None and args.policies is not None:
        raise ReproError(
            "--policies does not apply to --tune-thresholds "
            "(the sweep's baseline is static)"
        )
    telemetry = None
    if args.closed_loop:
        noise = 0.05 if args.noise is None else args.noise
        telemetry = TelemetryConfig(noise=noise, seed=args.seed)
    trace = _dynamics_trace(topology, args.scenario, args.epochs, args.seed)
    specs = _DEFAULT_POLICIES if args.policies is None else args.policies
    policies = tuple(
        spec for spec in (p.strip() for p in specs.split(",")) if spec
    )
    candidates = (
        None
        if args.candidates == 0
        else np.argsort(topology.mean_distances())[: args.candidates]
    )
    if args.tune_thresholds is None:
        grid = replay_spec(
            topology, system, trace, policies, candidates, telemetry
        )
    else:
        try:
            thresholds = tuple(
                float(part)
                for part in args.tune_thresholds.split(",")
                if part.strip()
            )
        except ValueError:
            raise ReproError(
                "--tune-thresholds expects comma-separated numbers, "
                f"got {args.tune_thresholds!r}"
            ) from None
        grid = tuning_spec(
            topology, system, trace, thresholds, telemetry, ("static",),
            candidates,
        )
    with GridRunner(jobs=args.jobs) as runner:
        result = runner.evaluate(grid)
    if args.tune_thresholds is not None:
        print(result.render_text())
        result = result.result
    print(result.render_text())
    if args.simulate_rate > 0:
        rows = simulate_placements(
            topology, system, trace, result,
            rate_per_ms=args.simulate_rate, seed=args.seed,
        )
        print(
            f"   simulated segment placements (fluid backend, "
            f"{args.simulate_rate} ops/ms):"
        )
        for row in rows:
            start, end = row["segment"]
            print(
                f"     epochs [{start},{end}): mean "
                f"{row['mean_response_ms']:.2f} ms, p95 "
                f"{row['p95_response_ms']:.2f} ms over "
                f"{row['operations']} ops ({row['members']} members)"
            )
    return 0


def _cmd_trace(args) -> int:
    if args.check:
        print(check_trace(args.path))
    else:
        print(summarize_trace(args.path, top=args.top))
    return 0


def _trace_config(args) -> dict:
    """The manifest's config: the parsed CLI arguments, scalars only."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "trace"
        and isinstance(value, (str, int, float, bool, type(None)))
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quorum placement planning (Oprea & Reiter, DSN 2007).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topologies", help="list bundled topologies")

    systems = sub.add_parser("systems", help="list quorum system specs")
    systems.add_argument("--max-universe", type=int, default=49)

    plan = sub.add_parser("plan", help="compute a deployment plan")
    plan.add_argument("--topology", default="planetlab-50",
                      choices=available_topologies())
    plan.add_argument("--system", default="grid:5",
                      help="'grid:<k>' or 'majority:<simple|bft|qu>:<t>'")
    plan.add_argument("--demand", type=int, default=0,
                      help="client demand in requests (alpha = 0.007ms * demand)")
    plan.add_argument("--strategy", default="lp",
                      choices=["lp", "closest", "balanced"])
    plan.add_argument("--many-to-one", type=float, default=None,
                      metavar="CAP",
                      help="use the many-to-one pipeline with this uniform capacity")
    plan.add_argument("--hierarchical", action="store_true",
                      help="cluster-medoid candidate search — required "
                      "reading for the wan-* presets, where exhaustive "
                      "search evaluates every one of thousands of sites "
                      "(exact below 200 sites either way)")
    plan.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the placement search "
                      "(0 = all cores)")
    plan.add_argument("--trace", default=None, metavar="PATH",
                      help="record a JSONL observability trace of the "
                      "run (inspect with 'trace summarize')")

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's figures, or all"
    )
    figure.add_argument("figure_id", choices=sorted(FIGURES) + ["all"],
                        help="figure id, or 'all' to run every figure "
                        "in sorted order")
    figure.add_argument("--fast", action="store_true",
                        help="shrink the parameter grid for a quick run")
    figure.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for grid points "
                        "(0 = all cores)")
    figure.add_argument("--no-cache", action="store_true",
                        help="recompute every grid point instead of "
                        "reusing cached results")
    figure.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="cache location (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    figure.add_argument("--cache-max-mb", type=float, default=None,
                        metavar="MB",
                        help="trim the cache to this size after each "
                        "store, evicting oldest entries first "
                        "(default: unbounded)")
    figure.add_argument("--trace", default=None, metavar="PATH",
                        help="record a JSONL observability trace of the "
                        "run (inspect with 'trace summarize')")

    dynamics = sub.add_parser(
        "dynamics",
        help="replay a time-varying topology scenario and measure how "
        "adaptation policies track the optimum",
    )
    dynamics.add_argument("--topology", default="planetlab-50",
                          choices=available_topologies())
    dynamics.add_argument("--system", default="grid:5",
                          help="'grid:<k>' or 'majority:<simple|bft|qu>:<t>'")
    dynamics.add_argument("--scenario", default="mixed",
                          choices=["mixed", "diurnal", "flash-crowd",
                                   "partition-heal"],
                          help="scenario generator (default: mixed — "
                          "drift + flash crowd + partition)")
    dynamics.add_argument("--epochs", type=int, default=24, metavar="N",
                          help="timeline length in epochs")
    dynamics.add_argument("--policies", default=None, metavar="SPECS",
                          help="comma-separated policy specs "
                          "(static, periodic:<k>, threshold:<x>; default "
                          f"{_DEFAULT_POLICIES}); not with --tune-thresholds")
    dynamics.add_argument("--seed", type=int, default=7,
                          help="scenario generator seed")
    dynamics.add_argument("--candidates", type=int, default=0, metavar="N",
                          help="restrict re-placement searches to the N "
                          "nodes with the smallest average client "
                          "distance (0 = search every node)")
    dynamics.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes for placement and "
                          "replay points (0 = all cores)")
    dynamics.add_argument("--closed-loop", action="store_true",
                          help="drive adaptation from noisy telemetry "
                          "estimates (per-epoch simulator probes) instead "
                          "of oracle trace state; the clairvoyant "
                          "baseline stays oracle")
    dynamics.add_argument("--noise", type=float, default=None,
                          metavar="STD",
                          help="relative telemetry measurement noise "
                          "(default 0.05; requires --closed-loop)")
    dynamics.add_argument("--tune-thresholds", default=None,
                          metavar="X1,X2,...",
                          help="auto-tune threshold:<x> over these "
                          "candidates on the replayed trace and report "
                          "the sweep (requires --closed-loop)")
    dynamics.add_argument("--simulate-rate", type=float, default=0.0,
                          metavar="OPS_PER_MS",
                          help="after the replay, cross-check each "
                          "segment's placement in the fluid simulator "
                          "at this open-loop arrival rate (0 = skip)")
    dynamics.add_argument("--trace", default=None, metavar="PATH",
                          help="record a JSONL observability trace of "
                          "the run (inspect with 'trace summarize')")

    trace = sub.add_parser(
        "trace", help="inspect JSONL observability traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase time breakdown, counter rollup, slowest points",
    )
    trace_summarize.add_argument("path", help="trace file (JSONL)")
    trace_summarize.add_argument("--top", type=int, default=5, metavar="N",
                                 help="slowest grid points to list")
    trace_summarize.add_argument("--check", action="store_true",
                                 help="validate the trace structurally "
                                 "and print one summary line (CI gate)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "topologies": _cmd_topologies,
        "systems": _cmd_systems,
        "plan": _cmd_plan,
        "figure": _cmd_figure,
        "dynamics": _cmd_dynamics,
        "trace": _cmd_trace,
    }
    handler = handlers[args.command]
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path is None or args.command == "trace":
            return handler(args)
        # --trace: run the command under an active tracer and persist
        # the JSONL trace afterwards. Tracing is observation only — the
        # command's results and exit code are identical either way.
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            status = handler(args)
        out = obs.write_trace(
            Path(trace_path), tracer, config=_trace_config(args)
        )
        events, counters = tracer.export()
        print(
            f"trace: {len(events)} span(s), {len(counters)} counter(s) "
            f"-> {out}"
        )
        return status
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
