"""Command-line entry point: ``python -m repro.lint [paths]``.

Exit-code contract (relied on by CI and ``scripts/lint.py``):

* ``0`` — clean: no finding.
* ``1`` — at least one finding was reported.
* ``2`` — usage or internal error (unknown rule, missing path...).

There is no baseline of grandfathered findings: a finding is fixed, or
suppressed on its own line with a written reason.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintConfig, LintError, all_rules, lint_paths
from repro.lint.report import render_json, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checks for determinism, cache-key, and "
            "shared-memory discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    parser.add_argument(
        "--json-output",
        metavar="FILE",
        help="additionally write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--rules",
        metavar="RL001,RL002,...",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rule table and exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for code, rule in sorted(all_rules().items()):
            print(f"{code}  {rule.name:28s} {rule.description}")
        return 0

    rules: tuple[str, ...] = ()
    if args.rules:
        rules = tuple(
            code.strip() for code in args.rules.split(",") if code.strip()
        )

    try:
        findings = lint_paths(args.paths, config=LintConfig(rules=rules))
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.json_output:
        Path(args.json_output).write_text(
            render_json(findings), encoding="utf-8"
        )
    if args.format == "json":
        sys.stdout.write(render_json(findings))
    else:
        sys.stdout.write(render_text(findings))
    return 1 if findings else 0
