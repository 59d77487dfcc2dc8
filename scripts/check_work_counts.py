#!/usr/bin/env python3
"""Work-count gate: the fast figure set must do exactly the recorded work.

Usage::

    python scripts/check_work_counts.py           # compare with the record
    python scripts/check_work_counts.py --update  # rewrite the record

Runs ``python -m repro figure all --fast --no-cache --trace <tmp>`` once,
reads the counters record of the trace with
:func:`repro.obs.summarize.load_trace`, and compares every counter (LP
solves, calibrations, updates and warm-start hits, simulated requests,
dynamics epochs and re-optimizations, program assemblies) with
``benchmarks/results/work_counts.json``. The counts are a pure function of
the code and the LP backend, so the record names the backend it was taken
under. Each differing counter is printed, and any difference or a backend
mismatch exits 1. The record also notes the solver package's version: a
different one can return other optimal vertices, and so other counts, and
is printed next to any difference. Times are never compared: hosts are
too noisy to gate on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD = ROOT / "benchmarks" / "results" / "work_counts.json"


def measure() -> tuple[str, dict[str, int]]:
    """``(lp_backend, counters)`` of one traced fast run of every figure."""
    from repro.obs.summarize import load_trace

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "figures.jsonl"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "figure", "all", "--fast",
                "--no-cache", "--trace", str(trace),
            ],
            check=True,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        manifest, _spans, counters = load_trace(trace)
    return str(manifest["lp_backend"]), dict(counters)


def differences(
    record: dict, lp_backend: str, counters: dict[str, int]
) -> list[str]:
    """One line per disagreement between the record and a run."""
    lines = []
    if record["lp_backend"] != lp_backend:
        lines.append(
            f"lp_backend: recorded {record['lp_backend']!r}, "
            f"ran {lp_backend!r}"
        )
    recorded = record["counters"]
    for name in sorted(set(recorded) | set(counters)):
        if recorded.get(name) != counters.get(name):
            lines.append(
                f"{name}: recorded {recorded.get(name)}, "
                f"counted {counters.get(name)}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the committed record"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from repro.lp.batched import lp_solver_identity

    lp_backend, counters = measure()
    version = lp_solver_identity()[1]
    if args.update:
        record = {
            "lp_backend": lp_backend,
            "lp_solver_version": version,
            "counters": counters,
        }
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD.relative_to(ROOT)}: {len(counters)} counter(s)")
        return 0
    record = json.loads(RECORD.read_text())
    lines = differences(record, lp_backend, counters)
    for line in lines:
        print(line)
    if lines:
        if record["lp_solver_version"] != version:
            print(
                f"note: recorded under solver {record['lp_solver_version']}, "
                f"this run used {version}"
            )
        print(
            f"{len(lines)} difference(s) from {RECORD.relative_to(ROOT)}; "
            "rerun with --update if the change in work is intended"
        )
        return 1
    print(f"{len(counters)} counter(s) match {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
