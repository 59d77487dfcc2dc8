#!/usr/bin/env python3
"""Work-count gate: the fast figure set must do exactly the recorded work.

Usage::

    python scripts/check_work_counts.py           # compare with the record
    python scripts/check_work_counts.py --update  # rewrite the record

Runs ``python -m repro figure all --fast --no-cache --trace <tmp>`` at
``--jobs 1`` and again at ``--jobs 2``, reads the counters record of each
trace with :func:`repro.obs.summarize.load_trace`, and compares every
counter (LP solves, calibrations, updates and warm-start hits, simulated
requests, dynamics epochs and re-optimizations, program assemblies) with
``benchmarks/results/work_counts.json``. The counts are a pure function of
the code and the LP backend, never of how a pool schedules grid points,
so both runs must match the same record, which names the backend it was
taken under. Each differing counter is printed with the ``--jobs`` value
of its run, and any difference or a backend mismatch exits 1. The record
also notes the solver package's version: a different one can return
other optimal vertices, and so other counts, and is printed next to any
difference. ``--update`` writes the ``--jobs 1`` run and still checks the
``--jobs 2`` run against it. Times are never compared: hosts are too
noisy to gate on.
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


#: Worker counts of the gated runs; the first one is what ``--update`` writes.
JOBS = (1, 2)


def measure(jobs: int) -> tuple[str, dict[str, int]]:
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
                "--no-cache", "--jobs", str(jobs), "--trace", str(trace),
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

    runs = {jobs: measure(jobs) for jobs in JOBS}
    version = lp_solver_identity()[1]
    if args.update:
        lp_backend, counters = runs[JOBS[0]]
        record = {
            "lp_backend": lp_backend,
            "lp_solver_version": version,
            "counters": counters,
        }
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {RECORD.relative_to(ROOT)}: {len(counters)} counter(s)")
    record = json.loads(RECORD.read_text())
    lines = [
        f"--jobs {jobs}: {line}"
        for jobs, (lp_backend, counters) in runs.items()
        for line in differences(record, lp_backend, counters)
    ]
    for line in lines:
        print(line)
    if lines:
        counts = [counters for _, counters in runs.values()]
        if any(other != counts[0] for other in counts[1:]):
            print(
                "note: the counts differ between --jobs values; work must "
                "not depend on how a pool schedules grid points"
            )
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
    print(
        f"{len(record['counters'])} counter(s) match "
        f"{RECORD.relative_to(ROOT)} at --jobs "
        + " and ".join(str(jobs) for jobs in JOBS)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
