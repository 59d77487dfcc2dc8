"""End-to-end benchmark driver.

One workload, for a fixed time (the form ``BENCHMARK.json`` names)::

    python3 bench_e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

runs fresh child processes (``bench_e2e/child.py``) one after another for
about ``T`` seconds, at least three, and prints each metric's median as
the last line of standard output, in JSON. ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics instead.

All four workloads, repeats round-robin, then one traced pass each::

    python3 bench_e2e/run.py run [--repeats 5] [--seed S]

writes ``bench_e2e/results/e2e.json``, ``e2e_layers.json`` and one JSONL
trace per workload. Two such records are compared with::

    python3 bench_e2e/run.py compare A/e2e.json B/e2e.json

and the committed network-delay reference is rewritten with
``python3 bench_e2e/run.py reference``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Fewest untraced children one timed run reports a median over.
MIN_REPEATS = 3
#: A child that takes longer than this is killed and the run fails, well
#: inside the 180 s one timed run may take.
CHILD_TIMEOUT_S = 120.0
#: How long a finished child's leftover processes may take to exit.
_GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36
#: Absolute floors under the relative bounds of ``BENCHMARK.json``:
#: set-up is a fraction of a second, where 10% is scheduler noise.
FLOORS = {"setup_s": 0.05}
#: Bounds of the result-quality numbers ``compare`` also reports. A change
#: that only redraws the telemetry noise moves the tuned regret like a new
#: noise seed does (2.87-3.33 ms over seeds 1-4 on scenario seed 7); the
#: plan's response time moves under 0.05% even when its sites are renumbered.
QUALITY_BOUNDS = {"regret_ms": 0.12, "plan_response_ms": 0.005}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(
            f"no library sources under {SRC}; run from a repository checkout"
        )


# -- children ------------------------------------------------------------------


def _child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    path = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    # Nothing outside the checkout: temp files and any default cache.
    (work / "tmp").mkdir()
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    # One BLAS thread per process: the pool supplies the parallelism, and
    # on two cores more threads only add contention and noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reap_orphans() -> None:
    """Make this process the parent of its descendants' orphans (Linux).

    A child's own helpers (the shared-memory resource tracker, say) can
    outlive it by a moment; as a subreaper the driver inherits them and
    can wait for them to end instead of leaving them to init.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise HarnessError(
            f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(ctypes.get_errno())}"
        )


def _stop(proc: subprocess.Popen) -> None:
    """Wait until the child and everything it started have ended.

    A child still running is killed with its process group at once; its
    leftovers get :data:`_GRACE_S` to exit on their own, then are killed.
    """
    killed = proc.poll() is None
    if killed:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + _GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # nothing left
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                raise HarnessError("descendants survived SIGKILL")
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + _GRACE_S
        time.sleep(0.005)


def spawn(workload: str, seed: int | None, trace_out: Path | None) -> dict:
    """Run one child to completion; its JSON record plus ``elapsed_s``."""
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    cmd = [
        sys.executable, "-m", "bench_e2e.child",
        "--workload", workload, "--work-dir", str(work),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=_child_env(work),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(
            f"{workload}: child ran longer than {CHILD_TIMEOUT_S:.0f} s"
        ) from None
    finally:
        _stop(proc)
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload}: child exited with {proc.returncode}:\n{err[-3000:]}"
        )
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise HarnessError(f"{workload}: child printed no result") from None
    record["elapsed_s"] = time.perf_counter() - started
    return record


def _trace_path(workload: str) -> Path:
    return RESULTS / "traces" / f"{workload}.jsonl"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Children of one workload, back to back, for about ``seconds``.

    Stops before a child that could end past ``seconds`` (as slow as the
    slowest so far), once there are :data:`MIN_REPEATS` untraced children
    (with ``trace``: one untraced and one traced, alternating).
    """
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        records.append(
            spawn(workload, seed, _trace_path(workload) if traced else None)
        )
        slowest = max(r["elapsed_s"] for r in records)
        enough = len(records) >= (2 if trace else MIN_REPEATS)
        if enough and time.perf_counter() - start + slowest > seconds:
            return records


# -- summaries -----------------------------------------------------------------


def _counts(record: dict) -> dict[str, float]:
    """The deterministic counts of a traced record: ``*_n`` metrics and
    every library counter."""
    counts = {k: v for k, v in record["layers"].items() if k.endswith("_n")}
    counts.update({f"counter.{k}": v for k, v in record["counters"].items()})
    return counts


def summarize(records: list[dict], e2e_names: list[str]) -> dict[str, Any]:
    """Samples, failures and identities of one workload's children."""
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    failures: list[str] = []
    attempted = 0

    def operation(name: str, ok: bool, detail: str = "") -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(f"{name}: {detail}")

    for record in records:
        for op in record["ops"] + record.get("warm_ops", []):
            operation(op["op"], op["ok"], op.get("error", ""))
    digests = {r["digest"] for r in records} | {
        r["warm_digest"] for r in traced
    }
    operation(
        "output_digest.identical", len(digests) == 1, f"{len(digests)} digests"
    )
    for record in traced:
        missing = record["missing_wrappers"]
        operation("layers.coverage", not missing, f"never fired: {missing}")
        check = record["trace_check"]
        operation("trace.valid", check.startswith("ok"), check)
        ratio = record["layers"]["runtime.cache.warm_hit_ratio"]
        operation("cache.warm_hit_ratio", ratio == 1.0, f"{ratio}")
    if len(traced) > 1:
        counts = [_counts(r) for r in traced]
        differ = sorted(
            {
                k
                for c in counts[1:]
                for k in c.keys() | counts[0].keys()
                if c.get(k) != counts[0].get(k)
            }
        )
        operation("layers.counts_repeat", not differ, f"{differ}")

    e2e = {name: [r[name] for r in untraced] for name in e2e_names}
    layer = {
        name: [r["layers"][name] for r in traced]
        for name in (traced[0]["layers"] if traced else ())
    }
    if traced and untraced:
        base = statistics.median(e2e["wall_s"])
        layer["obs.trace_overhead"] = [
            r["wall_s"] / base - 1.0 for r in traced
        ]
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": sorted(digests)[0],
        "quality": records[0]["quality"],
        "e2e": e2e,
        "layers": layer,
        "counts": _counts(traced[0]) if traced else {},
        "missing_wrappers": traced[0]["missing_wrappers"] if traced else [],
    }


def stats(samples: list[float], unit: str) -> dict[str, Any]:
    q1, q3 = _quartiles(samples)
    return {
        "unit": unit,
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def _quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _print_metric(workload: str, name: str, s: dict[str, Any]) -> None:
    print(
        f"{workload:<12} {name:<32} {s['median']:>14.6g} {s['unit']:<6} "
        f"min {s['min']:.6g}  max {s['max']:.6g}  n {s['n']}"
    )


# -- the timed single-workload form ------------------------------------------


def cmd_measure(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise HarnessError(f"unknown workload {args.workload!r}: {names}")
    records = measure(args.workload, args.seed, args.seconds, args.trace)
    summary = summarize(records, [m["name"] for m in spec["end_to_end"]])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    samples = summary["layers"] if args.trace else summary["e2e"]
    metrics = {}
    for metric in wanted:
        s = stats(samples[metric["name"]], metric["unit"])
        _print_metric(args.workload, metric["name"], s)
        metrics[metric["name"]] = {"value": s["median"], "unit": s["unit"]}
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


# -- run: every workload, round-robin ----------------------------------------


def cmd_run(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    if args.repeats < MIN_REPEATS:
        raise HarnessError(f"--repeats must be at least {MIN_REPEATS}")
    names = [w["name"] for w in spec["workloads"]]
    records: dict[str, list[dict]] = {name: [] for name in names}
    for repeat in range(args.repeats):
        for name in names:
            records[name].append(spawn(name, args.seed, None))
            print(
                f"repeat {repeat + 1}/{args.repeats} {name}: "
                f"{records[name][-1]['wall_s']:.3f} s",
                file=sys.stderr,
            )
    for name in names:
        records[name].append(spawn(name, args.seed, _trace_path(name)))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e: dict[str, Any] = {}
    layers: dict[str, Any] = {}
    for name in names:
        summary = summarize(records[name], list(units))
        e2e[name] = {
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "failed_frac": summary["failed"] / summary["attempted"],
            "failures": summary["failures"],
            "digest": summary["digest"],
            "quality": summary["quality"],
            "counts": summary["counts"],
            "metrics": {
                m: stats(v, units[m]) for m, v in summary["e2e"].items()
            },
        }
        layers[name] = {
            "trace": str(_trace_path(name).relative_to(HERE)),
            "missing_wrappers": summary["missing_wrappers"],
            "metrics": {
                m: stats(v, layer_units[m])
                for m, v in summary["layers"].items()
            },
        }
    provenance = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "repeats": args.repeats,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    for filename, payload in (("e2e.json", e2e), ("e2e_layers.json", layers)):
        (RESULTS / filename).write_text(
            json.dumps(
                {"provenance": provenance, "workloads": payload},
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    for name in names:
        for metric, s in e2e[name]["metrics"].items():
            _print_metric(name, metric, s)
        print(
            f"{name:<12} {'failed_frac':<32} "
            f"{e2e[name]['failed_frac']:>14.6g} ratio  "
            f"({e2e[name]['failed']}/{e2e[name]['attempted']})"
        )
        for metric, value in e2e[name]["quality"].items():
            print(f"{name:<12} {metric:<32} {value:>14.6g} ms")
        for failure in e2e[name]["failures"]:
            print(f"{name:<12} FAILED {failure}")
    print(f"wrote {RESULTS / 'e2e.json'} and {RESULTS / 'e2e_layers.json'}")
    return 0 if all(e2e[n]["failed"] == 0 for n in names) else 1


# -- compare -------------------------------------------------------------------


def verdict(
    a: list[float], b: list[float], bound: float, floor: float = 0.0
) -> str:
    """``better``/``same``/``worse``/``unresolved`` for a lower-is-better
    metric, from run ``a`` (base) to run ``b``.

    The allowed change is ``bound`` times the base median, but at least
    ``floor``. When either side's quartile spread is wider than that, the
    runs cannot tell a change from noise: ``unresolved``, unless every run
    of ``b`` beats every run of ``a``.
    """
    base = statistics.median(a)
    allowed = max(bound * abs(base), floor)
    spread = max(q3 - q1 for q1, q3 in (_quartiles(a), _quartiles(b)))
    if spread > allowed:
        return "better" if max(b) < min(a) else "unresolved"
    change = statistics.median(b) - base
    if change > allowed:
        return "worse"
    if change < -allowed:
        return "better"
    return "same"


def _row(name: str, workload: str, a: dict, b: dict, bound: float, v: str):
    print(
        f"{name:<18} {workload:<12} "
        f"{a['median']:>11.5g} [{a['q1']:.5g}, {a['q3']:.5g}]  "
        f"{b['median']:>11.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
        f"{bound:>6.1%}  {v}"
    )


def cmd_compare(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    a = json.loads(Path(args.base).read_text(encoding="utf-8"))["workloads"]
    b = json.loads(Path(args.new).read_text(encoding="utf-8"))["workloads"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    shared = [w for w in a if w in b]
    bad = False
    print(
        f"{'metric':<18} {'workload':<12} {'base median [q1, q3]':>30}  "
        f"{'new median [q1, q3]':>30}  {'bound':>6}  verdict"
    )
    for name, bound in bounds.items():
        for w in shared:
            sa, sb = a[w]["metrics"][name], b[w]["metrics"][name]
            v = verdict(sa["samples"], sb["samples"], bound, FLOORS.get(name, 0))
            bad |= v == "worse"
            _row(name, w, sa, sb, bound, v)
    for w in shared:
        fa, fb = a[w]["failed_frac"], b[w]["failed_frac"]
        v = "worse" if fb > fa else "better" if fb < fa else "same"
        bad |= v == "worse"
        _row("failed_frac", w, stats([fa], "ratio"), stats([fb], "ratio"), 0, v)
        for name, value in a[w]["quality"].items():
            if name in b[w]["quality"]:
                bound = QUALITY_BOUNDS[name]
                v = verdict([value], [b[w]["quality"][name]], bound)
                bad |= v == "worse"
                qa, qb = stats([value], "ms"), stats([b[w]["quality"][name]], "ms")
                _row(name, w, qa, qb, bound, v)

    print("\nexact identities:")
    for w in shared:
        ca, cb = a[w]["counts"], b[w]["counts"]
        differ = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
        for k in differ:
            print(f"  {w:<12} {k:<36} {ca.get(k)} -> {cb.get(k)}")
        same_digest = a[w]["digest"] == b[w]["digest"]
        print(
            f"  {w:<12} {len(ca) - len(differ)}/{len(set(ca) | set(cb))} "
            f"counts identical; output digest "
            f"{'identical' if same_digest else 'DIFFERS'}"
        )
        bad |= bool(differ) or not same_digest
    return 1 if bad else 0


# -- reference -------------------------------------------------------------------


def cmd_reference(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Rewrite the committed network-delay reference from this checkout."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench_e2e import checks, workloads
    from repro.runtime.cache import ResultCache

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cache = ResultCache(tmp)
        inputs = workloads.MODEL_FIGS.setup(None)
        figures = {
            name: call(inputs, cache)
            for name, call in workloads.MODEL_FIGS.calls
        }
        plan = dict(workloads.WAN_PLAN.calls)["plan"](
            workloads.WAN_PLAN.setup(None), cache
        )
    reference = {
        "model-figs": checks.network_delay_series(figures),
        "wan-plan": checks.plan_delays(plan),
    }
    checks.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in ("run", "compare", "reference"):
        parser = argparse.ArgumentParser(prog="bench_e2e/run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        run = sub.add_parser("run", help="every workload, round-robin")
        run.add_argument("--repeats", type=int, default=5)
        run.add_argument("--seed", type=int, default=None)
        compare = sub.add_parser("compare", help="compare two e2e.json")
        compare.add_argument("base")
        compare.add_argument("new")
        sub.add_parser("reference", help="rewrite reference.json")
        return parser.parse_args(argv)
    parser = argparse.ArgumentParser(prog="bench_e2e/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.command = "measure"
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    handlers = {
        "measure": cmd_measure,
        "run": cmd_run,
        "compare": cmd_compare,
        "reference": cmd_reference,
    }
    try:
        if args.command != "compare":
            require_checkout()
            _reap_orphans()
        return handlers[args.command](args, load_spec())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
