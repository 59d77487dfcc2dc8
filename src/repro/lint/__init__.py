"""repro-lint — AST-based invariant checks for reproducibility discipline.

The properties this repository's results rest on — bit-identical
``jobs=N`` replays, content-fingerprinted cache keys guarded by
:data:`repro.runtime.cache.CACHE_SCHEMA_VERSION`, seeded-RNG-only
stochastics, read-only shared-memory topology views — are invariants of
the *source*, not of any single test run. This package makes them
machine-checked: a small rule registry (:mod:`repro.lint.rules`), an
engine that parses each file once and dispatches AST nodes to every
registered rule (:mod:`repro.lint.engine`), per-line
``# repro-lint: disable=RULE`` suppressions, and text/JSON reporters
with a CLI exit-code contract (0 clean, 1 findings, 2 usage or internal
error). The gate is zero findings: a violation is fixed or suppressed on
its own line with a written reason.

Run it as ``python -m repro.lint [paths]``; see
``docs/architecture.md`` ("Static analysis & invariants") for the rule
table and the suppression contract.
"""

from __future__ import annotations

from repro.lint.engine import (
    Finding,
    LintConfig,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.report import render_json, render_text

# Importing the rules module registers every RL rule with the engine.
import repro.lint.rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "render_json",
    "render_text",
]
