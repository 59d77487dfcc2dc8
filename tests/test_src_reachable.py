"""Every module under ``src/repro`` has a caller that actually runs.

A module is live when a non-``__init__`` file in ``src/``, ``bench_e2e/``
or ``benchmarks/`` imports it — a name imported through a package
``__init__`` counts for the module that defines it — or when it is an
entry point. Tests do not count: code that only tests reach belongs in
``tests/``. A benchmark counts only because CI runs it, so every
``benchmarks/bench_*.py`` must be named by a step of the CI workflow.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: ``python -m repro``, ``python -m repro.lint``, and the rule module that
#: ``repro.lint`` imports for its registration side effect.
ENTRY_POINTS = {"repro.__main__", "repro.lint.__main__", "repro.lint.rules"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}


def _imports(path: Path):
    """``(module, name, bound_as)`` for every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _resolve(module: str, name: str | None) -> set[str]:
    """The ``src`` modules that importing ``name`` from ``module`` uses."""
    if name is not None and f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}  # a submodule
    path = MODULES.get(module)
    if path is None:
        return set()  # outside src/repro
    if name is None or path.name != "__init__.py":
        return {module}
    found: set[str] = set()
    for source, imported, bound in _imports(path):
        if bound == name:  # the package re-exports it from ``source``
            found |= _resolve(source, imported)
    return found or {module}


def test_every_module_is_imported_by_running_code():
    live = set(ENTRY_POINTS)
    for top in ("src", "bench_e2e", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for module, name, _ in _imports(path):
                live |= _resolve(module, name)
    dead = sorted(
        name
        for name, path in MODULES.items()
        if path.name != "__init__.py" and name not in live
    )
    assert dead == []


def test_every_benchmark_script_is_run_by_ci():
    steps = "\n".join(
        line
        for line in CI_WORKFLOW.read_text().splitlines()
        if not line.lstrip().startswith("#")
    )
    named = set(re.findall(r"benchmarks/(bench_\w+\.py)", steps))
    scripts = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
    assert sorted(scripts - named) == []
