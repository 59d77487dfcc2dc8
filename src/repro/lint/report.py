"""Text and JSON reporters for repro-lint findings.

The JSON schema (version 2) is a stable contract — CI uploads it as an
artifact and ``tests/test_lint.py`` pins its shape::

    {
      "version": 2,
      "counts": {
        "findings": <int>,      # findings reported below
        "by_rule": {"RL001": <int>, ...}
      },
      "findings": [
        {"rule", "path", "line", "col", "message", "snippet"}, ...
      ]
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable

from repro.lint.engine import Finding

__all__ = ["render_json", "render_text"]

#: Format version of the JSON report (2: no ``baselined`` count).
REPORT_VERSION = 2


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    findings = list(findings)
    lines = [finding.render() for finding in findings]
    if findings:
        by_rule = Counter(f.rule for f in findings)
        summary = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(f"{len(findings)} finding(s) ({summary})")
    else:
        lines.append("clean")
    return "\n".join(lines) + "\n"


def render_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (schema above), newline-terminated."""
    findings = list(findings)
    payload = {
        "version": REPORT_VERSION,
        "counts": {
            "findings": len(findings),
            "by_rule": dict(
                sorted(Counter(f.rule for f in findings).items())
            ),
        },
        "findings": [f.to_json() for f in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
