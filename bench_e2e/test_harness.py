"""Self-tests of the benchmark harness (fast: no workload runs)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from bench_e2e import checks, layers
from bench_e2e.run import verdict

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _span(id, parent, name, dur_us, proc="main", **attrs):
    return {
        "id": id,
        "parent": parent,
        "name": name,
        "proc": proc,
        "t0_us": 0.0,
        "dur_us": float(dur_us),
        "attrs": attrs,
    }


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, "bench.run", 1_000_000),
        _span(2, 1, "figure", 600_000),
        _span(3, 2, "core.evaluate", 200_000),
        _span(4, 1, "lp.solve", 100_000),
    ]
    selfs = layers.self_times(spans)
    assert selfs == pytest.approx({1: 0.3, 2: 0.4, 3: 0.2, 4: 0.1})
    metrics = layers.layer_metrics(spans, {})
    assert metrics["experiments.figure_self_s"] == pytest.approx(0.4)
    assert metrics["core.evaluate_s"] == pytest.approx(0.2)
    assert metrics["obs.unattributed_frac"] == pytest.approx(0.3)


def test_parallel_grid_points_are_dropped_and_workers_counted_as_cpu():
    # Two parallel points, both measured from batch start (so they overlap
    # each other and the grid.run); each carries a worker task subtree.
    spans = [
        _span(1, None, "bench.run", 1_000_000),
        _span(2, 1, "grid.run", 900_000, jobs=2),
        _span(3, 2, "grid.point", 500_000),
        _span(4, 3, "task", 400_000, proc="worker"),
        _span(5, 4, "core.evaluate", 300_000, proc="worker"),
        _span(6, 2, "grid.point", 880_000),
        _span(7, 6, "task", 600_000, proc="worker"),
        _span(8, 7, "core.evaluate", 600_000, proc="worker"),
    ]
    selfs = layers.self_times(spans)
    assert 3 not in selfs and 6 not in selfs
    assert selfs[2] == pytest.approx(0.9)  # the whole batch is the wait
    assert selfs[1] == pytest.approx(0.1)
    metrics = layers.layer_metrics(spans, {})
    assert metrics["core.evaluate_s"] == pytest.approx(0.9)
    assert metrics["runtime.pool.busy_s"] == pytest.approx(1.0)
    assert metrics["runtime.pool.wait_s"] == pytest.approx(0.9)
    assert metrics["runtime.pool.idle_frac"] == pytest.approx(1 - 1.0 / 1.8)
    assert metrics["runtime.grid.self_s"] == pytest.approx(0.1)
    assert metrics["obs.unattributed_frac"] == pytest.approx(0.1)


def test_serial_grid_points_keep_their_self_time():
    spans = [
        _span(1, None, "grid.run", 500_000, jobs=1),
        _span(2, 1, "grid.point", 400_000),
        _span(3, 2, "core.evaluate", 300_000),
    ]
    metrics = layers.layer_metrics(spans, {})
    assert metrics["runtime.pool.wait_s"] == 0
    assert metrics["runtime.grid.self_s"] == pytest.approx(0.2)


def test_layer_metric_names_match_the_benchmark_spec():
    computed = set(layers.layer_metrics([], {}))
    filled_in_later = {
        "runtime.cache.bytes",
        "runtime.cache.warm_s",
        "runtime.cache.warm_hit_ratio",
        "obs.trace_overhead",
    }
    assert computed | filled_in_later == {m["name"] for m in SPEC["per_layer"]}
    assert not computed & filled_in_later


# -- bounds ------------------------------------------------------------------------


def test_verdict_against_relative_bound():
    base = [10.0, 10.1, 10.2, 10.0, 10.1]
    assert verdict(base, [10.5, 10.6, 10.5, 10.4, 10.5], 0.1) == "same"
    assert verdict(base, [11.5, 11.6, 11.5, 11.4, 11.5], 0.1) == "worse"
    assert verdict(base, [8.5, 8.6, 8.5, 8.4, 8.5], 0.1) == "better"


def test_verdict_absolute_floor_absorbs_tiny_medians():
    base = [0.20, 0.21, 0.20]
    slower = [0.24, 0.24, 0.25]
    assert verdict(base, slower, 0.1) == "worse"
    assert verdict(base, slower, 0.1, floor=0.05) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert verdict(noisy, [8.5, 10.5, 12.5, 9.5, 11.5], 0.1) == "unresolved"
    assert verdict(noisy, [5.0, 5.1, 5.2], 0.1) == "better"


# -- wrappers ----------------------------------------------------------------------


def _wrapper(label):
    return next(w for w in layers.WRAPPERS if w.label == label)


def _originals():
    out = {}
    for wrapper in layers.WRAPPERS:
        owner, attr = layers._resolve(wrapper.target)
        out[wrapper.target] = (owner, attr, getattr(owner, attr))
    return out


def test_install_patches_every_binding_and_restore_is_identity():
    from repro.dynamics import controller, telemetry
    from repro.lp.batched import BatchedProgram

    originals = _originals()
    solve = BatchedProgram.__dict__["solve"]
    probe = telemetry.probe_epoch
    patches = layers.install()
    try:
        assert BatchedProgram.__dict__["solve"] is not solve
        # A by-name binding in another module is patched too.
        assert controller.probe_epoch is not probe
        assert controller.probe_epoch is telemetry.probe_epoch
        for owner, attr, original in originals.values():
            assert getattr(owner, attr) is not original
    finally:
        patches.restore()
    assert BatchedProgram.__dict__["solve"] is solve
    assert controller.probe_epoch is probe
    for owner, attr, original in originals.values():
        assert getattr(owner, attr) is original


def _tiny_lp():
    from repro.lp.batched import BatchedProgram
    from repro.lp.problem import LinearProgram

    lp = LinearProgram()
    v = lp.add_block("v", 2, lower=0.0, upper=10.0)
    lp.set_objective_many([v.index(0), v.index(1)], [1.0, 2.0])
    lp.add_le([v.index(0), v.index(1)], [-1.0, -1.0], -1.0)
    return BatchedProgram(lp)


def test_wrappers_record_spans_only_when_tracing():
    from repro.obs import tracer as obs

    solve = _wrapper("BatchedProgram.solve")
    with layers.install([solve]):
        program = _tiny_lp()
        assert program.solve().objective == pytest.approx(1.0)  # no tracer
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            program.solve()
        spans, _ = tracer.export()
    assert [(s["name"], s["attrs"]["fn"]) for s in spans] == [
        ("lp.solve", "BatchedProgram.solve")
    ]


def test_coverage_names_an_unwired_wrapper():
    from repro.obs import tracer as obs

    expected = ["BatchedProgram.solve", "BatchedProgram.update_objective"]
    tracer = obs.Tracer()
    # Only solve is installed: update_objective is listed but never wired.
    with layers.install([_wrapper("BatchedProgram.solve")]):
        program = _tiny_lp()
        with obs.tracing(tracer):
            program.update_objective([0], [1.5])
            program.solve()
    spans, _ = tracer.export()
    assert layers.coverage(spans, expected) == ["BatchedProgram.update_objective"]


# -- checks ------------------------------------------------------------------------


def test_digest_ignores_cache_metadata_but_not_values():
    from repro.experiments.series import FigureResult, Series

    def figure(y, cache):
        return FigureResult(
            "fig_x", "t", "x", "y",
            (Series.from_arrays("netdelay", [1, 2], y),),
            metadata={"cache": cache},
        )

    cold = checks.digest({"f": figure([1.0, 2.0], {"hits": 0})})
    warm = checks.digest({"f": figure([1.0, 2.0], {"hits": 2})})
    moved = checks.digest({"f": figure([1.0, np.nextafter(2.0, 3.0)], {})})
    assert cold == warm != moved


def test_reference_comparison_tolerance():
    reference = {"fig_x/netdelay": [100.0, 200.0]}
    checks.matches_reference({"fig_x/netdelay": [100.00001, 200.0]}, reference)
    with pytest.raises(checks.CheckFailed):
        checks.matches_reference({"fig_x/netdelay": [100.01, 200.0]}, reference)
    with pytest.raises(checks.CheckFailed):
        checks.matches_reference({}, reference)
