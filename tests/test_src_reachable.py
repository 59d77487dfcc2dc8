"""Every module and every library option under ``src/repro`` has a
caller that actually runs.

A module is live when a non-``__init__`` file in ``src/``, ``bench_e2e/``
or ``benchmarks/`` imports it — a name imported through a package
``__init__`` counts for the module that defines it — or when it is an
entry point. An option (a defaulted parameter of a public function) is
live when a call in those directories sets it. Tests do not count: code
that only tests reach belongs in ``tests/``. A benchmark counts only
because CI runs it, so every ``benchmarks/bench_*.py`` must be named by
a step of the CI workflow.
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


#: Options that only tests set, kept on purpose, with the reason for each.
ALLOWED_TEST_ONLY_OPTIONS = {
    "BatchedProgram.__init__: backend": (
        "the tests' in-process cold reference for the anchored solve path"
    ),
    "lin_vitter_filter: eps": (
        "the pipeline's guarantee is stated in epsilon; "
        "tests/test_properties.py checks it across epsilon"
    ),
    "many_to_one_placement: eps": (
        "the pipeline's guarantee is stated in epsilon; "
        "tests/test_properties.py checks it across epsilon"
    ),
    "EnumeratedQuorumSystem.__init__: name": (
        "only tests construct the class"
    ),
    "EnumeratedQuorumSystem.__init__: universe_size": (
        "only tests construct the class"
    ),
}


class _Def:
    """One function or method: the name calls use and its parameters."""

    def __init__(self, node: ast.FunctionDef, cls: str | None):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [
            a.arg
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        decorators = {
            d.id for d in node.decorator_list if isinstance(d, ast.Name)
        }
        skip = 1 if cls is not None and "staticmethod" not in decorators else 0
        self.positional = positional[skip:]
        self.defaulted = set(defaulted)
        self.params = set(positional) | {a.arg for a in args.kwonlyargs}
        self.call_name = cls if node.name == "__init__" else node.name
        self.label = f"{cls}.{node.name}" if cls else node.name
        self.public = not (cls or "").startswith("_") and (
            node.name == "__init__" or not node.name.startswith("_")
        )


def _collect_defs(body, cls: str | None, out: list) -> None:
    for node in body:
        if isinstance(node, ast.ClassDef):
            _collect_defs(node.body, node.name, out)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node, _Def(node, cls)))
            _collect_defs(node.body, None, out)


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(tree: ast.Module, defs_by_node: dict):
    """``(callee, positional values, keyword values, splat, scope)`` per call.

    ``scope`` is the stack of enclosing :class:`_Def` objects, innermost
    last. ``functools.partial(f, ...)`` is a call of ``f``;
    ``GridPoint(fn=f, kwargs={...})`` is a call of ``f`` with those
    keywords, and one whose ``kwargs`` is not a dict literal is a splat.
    """

    def visit(node: ast.AST, scope: tuple):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node in defs_by_node:
                scope = scope + (defs_by_node[node],)
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            args, keywords = list(node.args), {}
            splat = any(isinstance(a, ast.Starred) for a in args)
            for kw in node.keywords:
                if kw.arg is None:
                    splat = True
                else:
                    keywords[kw.arg] = kw.value
            if name == "partial" and args:
                name, args = _callee(args[0]), args[1:]
            elif name == "GridPoint" and "fn" in keywords:
                name, fields = _callee(keywords["fn"]), keywords.get("kwargs")
                args, keywords = [], {}
                if isinstance(fields, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in fields.keys
                ):
                    keywords = {
                        k.value: v for k, v in zip(fields.keys, fields.values)
                    }
                elif fields is not None:
                    splat = True
            if name is not None:
                yield name, args, keywords, splat, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, ())


def _condition(value: ast.expr, scope: tuple) -> tuple | None:
    """The enclosing defaulted parameter a passed value depends on, if the
    value is one: ``(id(def), name)``; ``None`` sets outright."""
    if isinstance(value, ast.Name):
        for outer in reversed(scope):
            if value.id in outer.params:
                if value.id in outer.defaulted:
                    return (id(outer), value.id)
                break
    return None


def _dead_options() -> list[str]:
    """Defaulted parameters of public ``src/repro`` functions that no
    call in running code sets."""
    trees, defs = {}, {}
    for top in ("src", "bench_e2e", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text())
            defs[path] = []
            _collect_defs(trees[path].body, None, defs[path])
    by_name: dict[str, list[_Def]] = {}
    for found in defs.values():
        for _, d in found:
            by_name.setdefault(d.call_name, []).append(d)

    # Each call sets parameters outright or on condition that a defaulted
    # parameter of an enclosing function is itself set (a pass-through).
    edges: list[tuple[tuple, tuple | None]] = []
    for path, tree in trees.items():
        nodes = dict(defs[path])
        for name, args, keywords, splat, scope in _calls(tree, nodes):
            for d in by_name.get(name, ()):
                if splat:
                    edges.extend(((id(d), p), None) for p in d.defaulted)
                    continue
                passed = [*zip(d.positional, args), *keywords.items()]
                edges.extend(
                    ((id(d), p), _condition(value, scope))
                    for p, value in passed
                )

    live: set = set()
    changed = True
    while changed:
        changed = False
        for target, needs in edges:
            if target not in live and (needs is None or needs in live):
                live.add(target)
                changed = True
    return sorted(
        f"{d.label}: {p}"
        for path, found in defs.items()
        if path.is_relative_to(SRC / "repro")
        for _, d in found
        if d.public
        for p in d.defaulted
        if (id(d), p) not in live
    )


def test_every_library_option_is_set_by_running_code():
    """A defaulted parameter of a public function or method in
    ``src/repro`` is an option; some call in ``src/``, ``bench_e2e/`` or
    ``benchmarks/`` must set it (by keyword or position, or with a
    ``*``/``**`` splat), or it belongs in ``ALLOWED_TEST_ONLY_OPTIONS``.

    Calls match definitions by name, bare or as an attribute, and
    ``__init__`` is called by its class name. A call ``f(p=q)`` where
    ``q`` is a parameter of an enclosing function counts only if ``q``
    has no default or is itself set, so threading an option through
    layers does not make it live.

    Limits: name matching can miss a dead option whose name collides
    with a live one (``Topology.median`` and ``np.median``), and an
    option always passed at its default value counts as set. The check
    never flags an option that a running caller sets.
    """
    assert _dead_options() == sorted(ALLOWED_TEST_ONLY_OPTIONS)
