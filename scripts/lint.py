#!/usr/bin/env python
"""Run the repository's static-analysis gate: repro-lint, then mypy.

Usage::

    python scripts/lint.py [--update-ratchet] [--skip-mypy]

Stages (both must pass; the script exits non-zero on the first failure):

1. ``python -m repro.lint src tests benchmarks scripts`` — the
   AST-based invariant checks (seeded RNG streams, cache-key markers,
   fingerprint completeness...). The gate is zero findings: there is no
   baseline of grandfathered ones.
2. ``mypy src`` under ``mypy.ini`` — strict on ``repro.runtime``,
   ``repro.lp`` and ``repro.dynamics`` (any error there fails), ratcheted
   elsewhere: the total error count must not exceed the ceiling recorded
   in ``mypy-ratchet.json``. ``--update-ratchet`` re-pins the ceiling to
   the current count (legitimate only when the count went *down*, or in
   the commit that introduces new ratcheted code on purpose).

mypy is optional tooling: when it is not installed (the pinned
reproduction container ships without it), stage 2 is skipped with a
notice — CI installs mypy and runs both stages.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RATCHET_FILE = REPO_ROOT / "mypy-ratchet.json"
LINT_TARGETS = ["src", "tests", "benchmarks", "scripts"]
STRICT_PREFIXES = ("src/repro/runtime/", "src/repro/lp/", "src/repro/dynamics/")

_ERROR_LINE = re.compile(r"^(?P<path>[^:\s][^:]*\.py):\d+:(?:\d+:)? error:")


def run_repro_lint() -> int:
    """Stage 1: the repo's own AST linter (exit code passes through)."""
    print(f"== repro-lint {' '.join(LINT_TARGETS)}")
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.lint.cli import main as lint_main

    return lint_main(LINT_TARGETS)


def run_mypy(update_ratchet: bool) -> int:
    """Stage 2: mypy with strict-package and ratchet enforcement."""
    if importlib.util.find_spec("mypy") is None:
        print("== mypy: not installed here; skipped (CI runs it)")
        return 0

    print("== mypy src")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    output = proc.stdout + proc.stderr
    error_paths = [
        m.group("path").replace("\\", "/")
        for m in (
            _ERROR_LINE.match(line) for line in output.splitlines()
        )
        if m
    ]
    strict_errors = [
        p for p in error_paths if p.startswith(STRICT_PREFIXES)
    ]
    total = len(error_paths)

    if strict_errors:
        sys.stdout.write(output)
        print(
            f"mypy: {len(strict_errors)} error(s) in strict packages "
            "(repro.runtime / repro.lp / repro.dynamics) — these are "
            "never ratcheted; fix or annotate."
        )
        return 1

    ratchet = json.loads(RATCHET_FILE.read_text(encoding="utf-8"))
    ceiling = ratchet.get("max_errors")

    if update_ratchet:
        ratchet["max_errors"] = total
        RATCHET_FILE.write_text(
            json.dumps(ratchet, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"mypy: ratchet pinned at {total} error(s)")
        return 0

    if ceiling is None:
        print(
            f"mypy: {total} error(s), all outside strict packages; "
            "ratchet not yet pinned (run with --update-ratchet to pin)"
        )
        return 0
    if total > ceiling:
        sys.stdout.write(output)
        print(
            f"mypy: {total} error(s) exceeds the ratchet ceiling "
            f"({ceiling}); fix the new ones or consciously re-pin with "
            "--update-ratchet"
        )
        return 1
    print(f"mypy: {total} error(s) <= ratchet ceiling ({ceiling}); ok")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-ratchet",
        action="store_true",
        help="re-pin mypy-ratchet.json to the current mypy error count",
    )
    parser.add_argument(
        "--skip-mypy",
        action="store_true",
        help="run only repro-lint (stage 1)",
    )
    args = parser.parse_args(argv)

    code = run_repro_lint()
    if code != 0:
        return code
    if args.skip_mypy:
        return 0
    return run_mypy(args.update_ratchet)


if __name__ == "__main__":
    sys.exit(main())
