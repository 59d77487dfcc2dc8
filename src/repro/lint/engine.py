"""Rule registry, AST dispatch, and suppression handling for repro-lint.

A :class:`Rule` looks at one parsed file (:class:`SourceFile`) and yields
:class:`Finding`\\ s. The engine parses each file exactly once, hands the
same tree to every enabled rule, then drops findings that a same-line
``# repro-lint: disable=RULE`` comment suppresses. Suppression comments
are recognized through :mod:`tokenize`, so a pragma spelled inside a
string literal never silences anything.

Findings are plain data; rendering and exit codes live in
:mod:`repro.lint.report` and :mod:`repro.lint.cli`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import ReproError

__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]


class LintError(ReproError):
    """The linter itself was misused (unknown rule, missing path...)."""


#: ``# repro-lint: disable=RL001`` or ``disable=RL001,RL005`` with an
#: optional free-text reason after ``--``. The reason is not parsed, but
#: writing one is the convention the review contract expects.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
)

_RULE_CODE_RE = re.compile(r"^[A-Z]+\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped text of the offending line.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Knobs threaded through every rule.

    ``allow`` maps a rule code to path fragments (POSIX-style, matched
    against the normalized relative path) where that rule is switched
    off wholesale — e.g. RL002 is meaningless under ``benchmarks/``,
    whose entire point is wall-clock measurement. ``cache_key_upstream``
    names the modules the cache-key construction itself imports; RL004
    requires the marker there even though they never import
    ``repro.runtime.cache`` back.
    """

    rules: tuple[str, ...] = ()  # empty = all registered rules
    allow: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    cache_key_upstream: tuple[str, ...] = (
        "repro/lp/batched.py",
        "repro/network/graph.py",
        "repro/quorums/base.py",
        "repro/quorums/threshold.py",
    )


#: Default per-rule path allowlists (see :class:`LintConfig.allow`).
DEFAULT_ALLOW: dict[str, tuple[str, ...]] = {
    # Benchmarks measure wall-clock time and read env toggles by design;
    # the cache module owns the REPRO_CACHE_DIR env contract; the
    # observability layer's clock module is the *only* place tracing may
    # read wall time (every other obs module stays enforced, so span
    # timings cannot leak in anywhere else — see repro/obs/clock.py).
    "RL002": (
        "benchmarks/",
        "repro/obs/clock.py",
        "repro/runtime/cache.py",
        "scripts/",
    ),
    # Tests and benchmarks import the cache module to test it — they are
    # not inputs to cache keys.
    "RL004": ("tests/", "benchmarks/", "scripts/"),
    # Exact float equality is the *point* of the test suite's
    # bit-identity pins (jobs=N == jobs=1, warm == cold); under tests/
    # the rule would demand a suppression on every pin. Production code
    # and benchmarks stay enforced.
    "RL006": ("tests/",),
}


@dataclass(frozen=True)
class SourceFile:
    """One parsed file plus the derived views rules need."""

    path: str  # normalized, repo-relative where possible
    text: str
    lines: tuple[str, ...]
    comments: tuple[tuple[int, str], ...]  # (line, comment text)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def is_under(self, fragments: Iterable[str]) -> bool:
        return any(fragment in self.path for fragment in fragments)

    def has_comment(self, needle: str) -> bool:
        return any(needle in text for _line, text in self.comments)


class Rule:
    """A registered check: metadata plus a ``check(tree, src, config)``."""

    def __init__(
        self,
        code: str,
        name: str,
        description: str,
        check: Callable[[ast.AST, SourceFile, LintConfig], Iterator[Finding]],
    ) -> None:
        self.code = code
        self.name = name
        self.description = description
        self._check = check

    def check(
        self, tree: ast.AST, src: SourceFile, config: LintConfig
    ) -> Iterator[Finding]:
        return self._check(tree, src, config)

    def __repr__(self) -> str:
        return f"Rule({self.code}: {self.name})"


_REGISTRY: dict[str, Rule] = {}


def register(
    code: str, name: str, description: str
) -> Callable[
    [Callable[[ast.AST, SourceFile, LintConfig], Iterator[Finding]]],
    Callable[[ast.AST, SourceFile, LintConfig], Iterator[Finding]],
]:
    """Decorator registering a check function under a rule code.

    >>> @register("XX001", "demo", "demonstration rule")
    ... def _check(tree, src, config):
    ...     yield from ()
    >>> all_rules()["XX001"].name
    'demo'
    >>> del _REGISTRY["XX001"]
    """
    if not _RULE_CODE_RE.match(code):
        raise LintError(f"rule code must look like RL001, got {code!r}")

    def wrap(
        fn: Callable[[ast.AST, SourceFile, LintConfig], Iterator[Finding]],
    ) -> Callable[[ast.AST, SourceFile, LintConfig], Iterator[Finding]]:
        if code in _REGISTRY:
            raise LintError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(code, name, description, fn)
        return fn

    return wrap


def all_rules() -> dict[str, Rule]:
    """Registered rules by code (import :mod:`repro.lint.rules` first)."""
    return dict(_REGISTRY)


def _collect_comments(text: str) -> tuple[tuple[int, str], ...]:
    """(line, text) for every real comment token; [] on tokenize errors."""
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse will report the syntax error; comments are moot.
        return ()
    return tuple(comments)


def _suppressed_rules_by_line(
    comments: Iterable[tuple[int, str]],
) -> dict[int, frozenset[str]]:
    by_line: dict[int, frozenset[str]] = {}
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",")
            )
            by_line[line] = by_line.get(line, frozenset()) | codes
    return by_line


def _normalize_path(path: "str | Path") -> str:
    """Repo-relative POSIX path when under cwd, else as given."""
    p = Path(path)
    try:
        p = p.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return p.as_posix()


def lint_source(
    text: str,
    path: "str | Path" = "<string>",
    config: LintConfig | None = None,
) -> list[Finding]:
    """Lint one source string; the unit every fixture test drives.

    >>> lint_source("rng = default_rng()\\n")[0].rule
    'RL001'
    >>> lint_source("rng = default_rng(42)\\n")
    []
    """
    config = config or LintConfig()
    norm = _normalize_path(path)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        return [
            Finding(
                rule="RL000",
                path=norm,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                snippet=(exc.text or "").strip(),
            )
        ]
    comments = _collect_comments(text)
    src = SourceFile(
        path=norm,
        text=text,
        lines=tuple(text.splitlines()),
        comments=comments,
    )
    suppressed = _suppressed_rules_by_line(comments)

    rules = all_rules()
    if config.rules:
        unknown = sorted(set(config.rules) - set(rules))
        if unknown:
            raise LintError(f"unknown rule code(s): {', '.join(unknown)}")
        rules = {code: rules[code] for code in config.rules}

    findings: list[Finding] = []
    for code in sorted(rules):
        rule = rules[code]
        if src.is_under(config.allow.get(code, ())):
            continue
        for finding in rule.check(tree, src, config):
            if code in suppressed.get(finding.line, frozenset()):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(
    path: "str | Path", config: LintConfig | None = None
) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, path=path, config=config)


def lint_paths(
    paths: Iterable["str | Path"], config: LintConfig | None = None
) -> list[Finding]:
    """Lint files and directories (recursively, ``*.py``), deduplicated.

    Nonexistent paths raise :class:`LintError` — a typo'd path silently
    linting nothing is exactly the kind of failure this tool exists to
    prevent.
    """
    config = config or LintConfig()
    files: list[Path] = []
    seen: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise LintError(f"no such file or directory: {entry}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_file(file, config=config))
    return findings
