"""The observability layer's determinism contract and trace format.

Three families of pins:

* **Zero-perturbation** — tracing is observation only. Traced runs are
  bit-identical to untraced runs (results *and* cache keys/bytes), on
  both LP backends, serial and parallel alike; the disabled fast path
  allocates nothing.
* **Format** — the JSONL schema (manifest / span / counters records) is
  pinned field-for-field, ``load_trace`` rejects every malformed shape,
  and ``summarize`` renders a golden output.
* **Plumbing** — worker span merge is structurally deterministic,
  ``run_figure`` exposes per-run cache deltas, shm fallbacks log and
  count, and the LP counters agree with the solve schedule.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.errors import ReproError
from repro.lp import BatchedProgram, LinearProgram
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    Tracer,
    activate,
    build_manifest,
    count,
    current_tracer,
    deactivate,
    span,
    tracing,
    write_trace,
)
from repro.obs.summarize import check, load_trace, summarize
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.runtime.grid import GridPoint
from repro.runtime.runner import GridRunner

@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    deactivate()
    yield
    deactivate()


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_and_counters(self):
        tracer = Tracer()
        with tracer.span("outer", size=2):
            tracer.count("items", 2)
            with tracer.span("inner", tag="a"):
                tracer.count("items")
        events, counters = tracer.export()
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert outer["attrs"] == {"size": 2}
        assert inner["attrs"] == {"tag": "a"}
        assert all(e["proc"] == "main" for e in events)
        assert all(e["dur_us"] >= 0 for e in events)
        assert counters == {"items": 3}

    def test_annotate_inside_span(self):
        tracer = Tracer()
        with tracer.span("phase") as s:
            s.annotate(found=7)
        events, _ = tracer.export()
        assert events[0]["attrs"] == {"found": 7}

    def test_annotate_outside_span_raises(self):
        s = Tracer().span("phase")
        with pytest.raises(ReproError):
            s.annotate(found=7)

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ReproError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_export_with_open_span_raises(self):
        tracer = Tracer()
        tracer.span("left.open").__enter__()
        with pytest.raises(ReproError, match="still open"):
            tracer.export()

    def test_merge_remaps_ids_and_reparents_roots(self):
        child = Tracer(label="worker")
        with child.span("task"):
            with child.span("lp"):
                child.count("lp.solve", 3)
        events, counters = child.export()

        parent = Tracer()
        parent.count("lp.solve", 1)
        point = parent.record_span("grid.point", 0, 1000, tag="p0")
        parent.merge(events, counters, parent=point)
        merged, totals = parent.export()

        by_name = {e["name"]: e for e in merged}
        assert by_name["task"]["parent"] == point
        assert by_name["lp"]["parent"] == by_name["task"]["id"]
        assert by_name["task"]["proc"] == "worker"
        ids = [e["id"] for e in merged]
        assert len(set(ids)) == len(ids)
        assert totals == {"lp.solve": 4}

    def test_record_span_attaches_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.record_span("done", 0, 500)
        events, _ = tracer.export()
        assert events[1]["parent"] == events[0]["id"]
        assert events[1]["dur_us"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Activation and the disabled fast path
# ----------------------------------------------------------------------
class TestActivation:
    def test_tracing_context_installs_and_removes(self):
        tracer = Tracer()
        assert current_tracer() is None
        with tracing(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_tracing_removes_on_exception(self):
        with pytest.raises(RuntimeError):
            with tracing(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is None

    def test_nested_activation_refused(self):
        with tracing(Tracer()):
            with pytest.raises(ReproError, match="already active"):
                activate(Tracer())

    def test_deactivate_is_idempotent(self):
        deactivate()
        deactivate()
        assert current_tracer() is None

    def test_disabled_span_is_one_shared_noop(self):
        """The zero-overhead contract: no allocation per disabled call."""
        first = span("anything", size=1)
        second = span("else")
        assert first is second  # the shared nullcontext instance
        with first:
            pass  # reusable and reentrant

    def test_disabled_count_records_nothing(self):
        count("lp.solve", 10)  # no active tracer: must be a no-op
        tracer = Tracer()
        with tracing(tracer):
            count("lp.solve", 2)
        assert tracer.counters == {"lp.solve": 2}

    def test_helpers_route_to_active_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            with span("phase", k=1):
                count("n", 5)
        events, counters = tracer.export()
        assert events[0]["name"] == "phase"
        assert counters == {"n": 5}


# ----------------------------------------------------------------------
# JSONL schema pin
# ----------------------------------------------------------------------
class TestTraceFormat:
    def _write(self, tmp_path):
        tracer = Tracer()
        with tracing(tracer):
            with span("figure", figure_id="fig_x"):
                with span("grid.point", tag="p0"):
                    count("lp.solve", 2)
        return write_trace(
            tmp_path / "t.jsonl", tracer, config={"figure_id": "fig_x"}
        )

    def test_record_shapes_are_pinned(self, tmp_path):
        out = self._write(tmp_path)
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        manifest, *spans, counters = records

        assert manifest["type"] == "manifest"
        assert set(manifest) == {
            "type", "trace_schema", "cache_schema", "lp_backend",
            "shm_available", "python", "numpy", "config",
            "config_fingerprint", "written_at",
        }
        assert manifest["trace_schema"] == TRACE_SCHEMA_VERSION == 1
        assert manifest["cache_schema"] == CACHE_SCHEMA_VERSION
        assert manifest["config"] == {"figure_id": "fig_x"}
        assert len(manifest["config_fingerprint"]) == 64

        assert [s["name"] for s in spans] == ["figure", "grid.point"]
        for record in spans:
            assert set(record) == {
                "type", "id", "parent", "name", "proc", "t0_us",
                "dur_us", "attrs",
            }
        assert counters == {
            "type": "counters", "counters": {"lp.solve": 2}
        }

    def test_config_fingerprint_is_content_addressed(self):
        a = build_manifest({"x": 1, "y": 2})
        b = build_manifest({"y": 2, "x": 1})
        c = build_manifest({"x": 1, "y": 3})
        assert a["config_fingerprint"] == b["config_fingerprint"]
        assert a["config_fingerprint"] != c["config_fingerprint"]

    def test_load_trace_round_trips(self, tmp_path):
        out = self._write(tmp_path)
        manifest, spans, counters = load_trace(out)
        assert manifest["lp_backend"]
        assert [s["name"] for s in spans] == ["figure", "grid.point"]
        assert counters == {"lp.solve": 2}
        assert "ok:" in check(out)

    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (lambda rs: rs[1:], "first record must be a manifest"),
            (lambda rs: [{**rs[0], "trace_schema": 99}] + rs[1:],
             "trace schema"),
            (lambda rs: [rs[0], rs[0]] + rs[1:], "duplicate manifest"),
            (lambda rs: rs[:-1], "no counters record"),
            (lambda rs: [rs[0], rs[-1]] + rs[1:-1], "must be last"),
            (lambda rs: rs[:-1] + [{"type": "mystery"}],
             "unknown record type"),
            (lambda rs: [rs[0], {**rs[1], "dur_us": -1.0}] + rs[2:],
             "negative"),
            (lambda rs: [rs[0], rs[1], {**rs[2], "id": rs[1]["id"]}]
             + rs[3:], "reused"),
            (lambda rs: [rs[0], {**rs[1], "parent": 999}] + rs[2:],
             "unknown parent"),
            (lambda rs: rs[:-1]
             + [{"type": "counters", "counters": {"n": -1}}],
             "non-negative"),
            (lambda rs: rs[:-1]
             + [{"type": "counters", "counters": [1, 2]}],
             "must be an object"),
        ],
    )
    def test_malformed_traces_rejected(self, tmp_path, mutate, reason):
        out = self._write(tmp_path)
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            "".join(json.dumps(r) + "\n" for r in mutate(records))
        )
        with pytest.raises(ReproError, match=reason):
            check(bad)

    def test_empty_and_non_json_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ReproError, match="empty"):
            load_trace(empty)
        garbled = tmp_path / "garbled.jsonl"
        garbled.write_text("not json\n")
        with pytest.raises(ReproError, match="not JSON"):
            load_trace(garbled)
        with pytest.raises(ReproError, match="cannot read"):
            load_trace(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# Bit-identity: tracing never perturbs results or cache bytes
# ----------------------------------------------------------------------
def _snapshot(search):
    return (
        search.v0,
        search.avg_network_delay,
        search.delays_by_candidate,
        search.placed.placement.assignment.tobytes(),
    )


def _run_search(topology, jobs):
    system = GridQuorumSystem(2)
    candidates = np.argsort(topology.mean_distances())[:4]
    with GridRunner(jobs=jobs) as runner:
        return best_placement(
            topology, system, candidates=candidates, runner=runner
        )


class TestBitIdentity:
    """ISSUE acceptance: traced == untraced to the bit, both backends,
    serial and parallel."""

    @pytest.fixture(params=[1, 2])
    def jobs(self, request) -> int:
        # A fixture, not a mark, so the worker count leads the test id
        # ahead of the LP backend, as in "[1-auto]".
        return request.param

    def test_traced_equals_untraced(self, plane_topology, jobs, lp_backend):
        untraced = _snapshot(_run_search(plane_topology, jobs))
        with tracing(Tracer()):
            traced = _snapshot(_run_search(plane_topology, jobs))
        assert traced == untraced

    def test_traced_jobs2_equals_untraced_jobs1(
        self, plane_topology, lp_backend
    ):
        serial = _snapshot(_run_search(plane_topology, 1))
        with tracing(Tracer()):
            parallel = _snapshot(_run_search(plane_topology, 2))
        assert parallel == serial

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cache_bytes_identical(self, tmp_path, jobs):
        """A traced run stores exactly the files an untraced run would —
        same keys (names), same bytes."""

        def run(root):
            cache = ResultCache(root)
            points = [
                GridPoint(
                    tag=i,
                    fn=pow,
                    kwargs={"base": 2, "exp": i},
                    cache_key={"kind": "obs-bit-identity", "exp": i},
                )
                for i in range(4)
            ]
            with GridRunner(jobs=jobs, cache=cache) as runner:
                results = runner.run(points)
            return results

        untraced = run(tmp_path / "untraced")
        with tracing(Tracer()):
            traced = run(tmp_path / "traced")
        assert traced == untraced

        def listing(root):
            return {
                p.name: p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        assert listing(tmp_path / "traced") == listing(
            tmp_path / "untraced"
        )


# ----------------------------------------------------------------------
# Parallel span merge determinism
# ----------------------------------------------------------------------
def _structure(tracer):
    """The deterministic projection of a trace: everything but timing."""
    events, counters = tracer.export()
    return [
        (e["id"], e["parent"], e["name"], e["proc"],
         tuple(sorted(e["attrs"].items())))
        for e in events
    ], counters


class TestMergeDeterminism:
    def test_two_parallel_runs_have_identical_structure(self):
        def run():
            tracer = Tracer()
            with tracing(tracer):
                with GridRunner(jobs=2) as runner:
                    runner.map(
                        pow, [{"base": 2, "exp": i} for i in range(6)]
                    )
            return _structure(tracer)

        assert run() == run()

    def test_worker_spans_graft_under_their_grid_point(self):
        tracer = Tracer()
        with tracing(tracer):
            with GridRunner(jobs=2) as runner:
                runner.map(pow, [{"base": 3, "exp": i} for i in range(4)])
        events, _ = tracer.export()
        points = [e for e in events if e["name"] == "grid.point"]
        tasks = [e for e in events if e["name"] == "task"]
        assert len(points) == 4
        assert len(tasks) == 4
        assert [e["attrs"]["tag"] for e in points] == [
            "0", "1", "2", "3"
        ]  # merged in submission order, not completion order
        point_ids = {e["id"] for e in points}
        assert all(t["parent"] in point_ids for t in tasks)
        assert all(t["proc"] == "worker" for t in tasks)


# ----------------------------------------------------------------------
# summarize / check golden output
# ----------------------------------------------------------------------
GOLDEN_RECORDS = [
    {"type": "manifest", "trace_schema": 1, "cache_schema": 7,
     "lp_backend": "test", "shm_available": True, "config": {},
     "config_fingerprint": "f" * 64},
    {"type": "span", "id": 1, "parent": None, "name": "figure",
     "proc": "main", "t0_us": 0.0, "dur_us": 5000.0,
     "attrs": {"figure_id": "fig_x"}},
    {"type": "span", "id": 2, "parent": 1, "name": "grid.point",
     "proc": "main", "t0_us": 100.0, "dur_us": 2000.0,
     "attrs": {"tag": "b"}},
    {"type": "span", "id": 3, "parent": 1, "name": "grid.point",
     "proc": "main", "t0_us": 2200.0, "dur_us": 1000.0,
     "attrs": {"tag": "a"}},
    {"type": "counters", "counters": {"lp.solve": 4, "cache.hit": 1}},
]

GOLDEN_SUMMARY = """\
== trace summary: golden.jsonl ==
   manifest: trace_schema=1 cache_schema=7 lp_backend=test config_fingerprint=ffffffffffff
   spans: 3 across 2 name(s)
     name                      count   total_ms   mean_ms    max_ms
     figure                        1       5.00      5.00      5.00
     grid.point                    2       3.00      1.50      2.00
   counters: 2
     cache.hit                                 1
     lp.solve                                  4
   top 2 slowest grid point(s):
     b                                              2.00 ms
     a                                              1.00 ms"""


class TestSummarize:
    @pytest.fixture()
    def golden(self, tmp_path):
        out = tmp_path / "golden.jsonl"
        out.write_text(
            "".join(
                json.dumps(r, sort_keys=True) + "\n"
                for r in GOLDEN_RECORDS
            )
        )
        return out

    def test_golden_summary(self, golden):
        assert summarize(golden, top=2) == GOLDEN_SUMMARY

    def test_golden_check_line(self, golden):
        assert check(golden) == (
            "ok: golden.jsonl — 3 span(s), 2 counter(s), "
            "lp_backend=test, cache_schema=7"
        )

    def test_top_zero_omits_slowest_listing(self, golden):
        assert "slowest" not in summarize(golden, top=0)


# ----------------------------------------------------------------------
# run_figure cache-stats exposure
# ----------------------------------------------------------------------
class TestCacheStatsExposure:
    def test_run_figure_reports_per_run_deltas(self, tmp_path):
        from repro.experiments import run_figure

        cache = ResultCache(tmp_path)
        first = run_figure("fig_6_3", fast=True, cache=cache)
        stats = first.metadata["cache"]
        assert set(stats) == {"hits", "misses", "stores", "evictions"}
        assert stats["hits"] == 0
        assert stats["misses"] == stats["stores"] > 0

        second = run_figure("fig_6_3", fast=True, cache=cache)
        again = second.metadata["cache"]
        # Deltas, not lifetime totals: the second run reports only its
        # own hits even though the cache object accumulated both runs.
        assert again["hits"] == stats["misses"]
        assert again["misses"] == 0
        assert second.series == first.series

    def test_uncached_run_has_no_cache_metadata(self):
        from repro.experiments import run_figure

        result = run_figure("fig_6_3", fast=True)
        assert "cache" not in result.metadata


# ----------------------------------------------------------------------
# shm fallback: logged and counted, never silent
# ----------------------------------------------------------------------
class TestShmFallback:
    def test_disabled_transport_logs_and_counts(
        self, monkeypatch, caplog, plane_topology
    ):
        from repro.runtime.shm import SHM_DISABLE_ENV, TopologyBroker

        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        tracer = Tracer()
        with tracing(tracer):
            with caplog.at_level(logging.INFO, logger="repro.runtime.shm"):
                broker = TopologyBroker()
                shipped = broker.publish(plane_topology)
        assert shipped is plane_topology
        assert tracer.counters.get("shm.fallback") == 1
        assert any(
            "unavailable" in record.message for record in caplog.records
        )

    def test_publish_failure_logs_warning_and_counts(
        self, monkeypatch, caplog, plane_topology
    ):
        import repro.runtime.shm as shm_module

        class _Boom:
            def __init__(self, *args, **kwargs):
                raise OSError("no /dev/shm for you")

        monkeypatch.setattr(
            shm_module.shared_memory, "SharedMemory", _Boom
        )
        tracer = Tracer()
        with tracing(tracer):
            with caplog.at_level(
                logging.WARNING, logger="repro.runtime.shm"
            ):
                broker = shm_module.TopologyBroker()
                shipped = broker.publish(plane_topology)
        assert shipped is plane_topology  # pickle fallback, not a crash
        assert tracer.counters.get("shm.fallback") == 1
        assert any(
            record.levelno == logging.WARNING for record in caplog.records
        )


# ----------------------------------------------------------------------
# LP counters agree with the solve schedule
# ----------------------------------------------------------------------
def _tied_program(backend=None):
    lp = LinearProgram()
    lp.add_block("v", 3, lower=0.0, upper=1.0)
    lp.set_objective_many(np.arange(3), np.ones(3))
    lp.add_le([0, 1, 2], [-1.0, -1.0, -1.0], -1.5)
    return BatchedProgram(lp, backend=backend)


class TestLpCounters:
    def test_solve_counts_match_requests(self):
        tracer = Tracer()
        with tracing(tracer):
            program = _tied_program()
            program.solve([-1.2])
            program.solve([-0.8])
            program.solve_many([[-1.0], [-0.5], [-1.4]])
        assert tracer.counters["lp.solve"] == 5
        if program._impl.stateful:
            assert tracer.counters["lp.calibration"] == 1  # one anchor
        else:  # a fresh linprog call per variant: nothing to calibrate
            assert "lp.calibration" not in tracer.counters

    def test_scipy_backend_never_reports_warm_hits(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_BACKEND", "scipy")
        tracer = Tracer()
        with tracing(tracer):
            program = _tied_program()
            program.solve([-1.2])
            program.solve([-0.8])
        assert tracer.counters["lp.solve"] == 2
        assert "lp.warm_start_hit" not in tracer.counters

    def test_empty_solve_many_counts_nothing(self):
        tracer = Tracer()
        with tracing(tracer):
            _tied_program().solve_many([])
        assert "lp.solve" not in tracer.counters


# ----------------------------------------------------------------------
# CLI integration: --trace and trace summarize
# ----------------------------------------------------------------------
class TestCli:
    def test_figure_trace_flag_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        code = main(
            ["figure", "fig_6_3", "--fast", "--no-cache",
             "--trace", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace:" in printed and str(out) in printed
        manifest, spans, counters = load_trace(out)
        assert manifest["config"]["figure_id"] == "fig_6_3"
        assert manifest["config"]["fast"] is True
        assert spans[0]["name"] == "figure"
        assert "grid.run" in {s["name"] for s in spans}

        assert main(["trace", "summarize", str(out), "--check"]) == 0
        assert capsys.readouterr().out.startswith("ok:")
        assert main(["trace", "summarize", str(out)]) == 0
        assert "counters" in capsys.readouterr().out

    def test_untraced_figure_prints_no_trace_line(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig_6_3", "--fast", "--no-cache"]) == 0
        assert "trace:" not in capsys.readouterr().out

    def test_summarize_rejects_corrupt_trace(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n')
        assert main(["trace", "summarize", str(bad), "--check"]) == 1
        assert "invalid trace" in capsys.readouterr().err
