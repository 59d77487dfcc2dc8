"""The repo-specific repro-lint rules (RL001–RL008).

Each rule encodes one invariant the repository's reproducibility story
depends on. They are deliberately syntactic: a rule that needs whole-
program dataflow to fire will silently rot, while these all key on the
idioms this codebase actually uses (``np.random.default_rng(seed)``
streams, ``fingerprint_components`` methods, ``resolve_topology``
views). False positives are handled by the same-line suppression
contract — with a written reason — never by weakening the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Finding, LintConfig, SourceFile, register

__all__: list[str] = []

#: Legacy ``np.random`` module-level samplers and the global-state seed.
#: Anything here routes through numpy's ambient global generator, whose
#: state any import or library call can perturb — the exact failure mode
#: that breaks ``jobs=N`` bit-identity between scheduling orders.
_NP_RANDOM_AMBIENT_EXEMPT = frozenset({"default_rng", "Generator", "BitGenerator", "SeedSequence"})

#: Wall-clock reads (rule RL002). ``(module, attr)`` pairs.
_CLOCK_ATTRS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Names whose import from ``repro.runtime.cache`` (directly or via the
#: ``repro.runtime`` facade) makes a module part of the cache-key blast
#: radius (rule RL004). Importing ``ResultCache`` alone is storage
#: plumbing, not a key input, so it is deliberately absent.
_CACHE_KEY_NAMES = frozenset(
    {
        "content_key",
        "topology_fingerprint",
        "system_fingerprint",
        "CACHE_SCHEMA_VERSION",
    }
)

#: The marker RL004 requires (as a comment) in cache-key-input modules.
CACHE_KEY_MARKER = "cache-key-input"

#: Methods rule RL003 audits for field completeness.
_FINGERPRINT_METHODS = frozenset(
    {"fingerprint", "content_fingerprint", "fingerprint_components"}
)


def _finding(
    rule: str, src: SourceFile, node: ast.AST, message: str
) -> Finding:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return Finding(
        rule=rule,
        path=src.path,
        line=line,
        col=col,
        message=message,
        snippet=src.line_text(line),
    )


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _has_seed_argument(call: ast.Call) -> bool:
    if call.args and not (
        isinstance(call.args[0], ast.Constant) and call.args[0].value is None
    ):
        return True
    return any(kw.arg == "seed" for kw in call.keywords)


@register(
    "RL001",
    "unseeded-randomness",
    "ambient or unseeded RNG breaks jobs=N bit-identity",
)
def _rl001(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    imports_stdlib_random = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                imports_stdlib_random = True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield _finding(
                    "RL001",
                    src,
                    node,
                    "stdlib `random` draws from ambient global state; use "
                    "a seeded np.random.default_rng(seed) stream",
                )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        leaf = dotted.rsplit(".", 1)[-1]
        if leaf == "default_rng" and not _has_seed_argument(node):
            yield _finding(
                "RL001",
                src,
                node,
                "default_rng() without a seed is entropy-seeded: two "
                "workers replaying the same grid point diverge",
            )
            continue
        parts = dotted.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in _NP_RANDOM_AMBIENT_EXEMPT
        ):
            yield _finding(
                "RL001",
                src,
                node,
                f"np.random.{parts[2]} uses numpy's ambient global "
                "generator; pass an explicit seeded Generator instead",
            )
        elif (
            imports_stdlib_random
            and len(parts) == 2
            and parts[0] == "random"
        ):
            yield _finding(
                "RL001",
                src,
                node,
                f"random.{parts[1]} draws from ambient global state; use "
                "a seeded np.random.default_rng(seed) stream",
            )


@register(
    "RL002",
    "wall-clock-or-env",
    "wall-clock and environment reads make results run-dependent",
)
def _rl002(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            clocked = [
                alias.name
                for alias in node.names
                if ("time", alias.name) in _CLOCK_ATTRS
            ]
            if clocked:
                yield _finding(
                    "RL002",
                    src,
                    node,
                    f"importing {', '.join(clocked)} from time: wall-clock "
                    "reads do not belong in reproducible code paths",
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            parts = tuple(dotted.split("."))
            if len(parts) >= 2 and parts[-2:] in {
                pair for pair in _CLOCK_ATTRS
            }:
                yield _finding(
                    "RL002",
                    src,
                    node,
                    f"{dotted} reads the wall clock; results must be a "
                    "function of inputs and seeds only",
                )
            elif parts[-2:] == ("os", "environ"):
                yield _finding(
                    "RL002",
                    src,
                    node,
                    "os.environ read outside config/bench modules: ambient "
                    "environment silently forks behavior between runs",
                )
            elif parts[-2:] == ("os", "getenv"):
                yield _finding(
                    "RL002",
                    src,
                    node,
                    "os.getenv outside config/bench modules: ambient "
                    "environment silently forks behavior between runs",
                )


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = _dotted(target)
        if dotted in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> list[str]:
    fields: list[str] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        fields.append(stmt.target.id)
    return fields


def _exclude_set(node: ast.ClassDef) -> tuple[set[str], ast.stmt | None]:
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "_FINGERPRINT_EXCLUDE"
            ):
                names: set[str] = set()
                assert value is not None
                literal = value
                if isinstance(literal, ast.Call) and literal.args:
                    literal = literal.args[0]  # frozenset({...})
                if isinstance(literal, (ast.Tuple, ast.List, ast.Set)):
                    for element in literal.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.add(element.value)
                return names, stmt
    return set(), None


@register(
    "RL003",
    "fingerprint-completeness",
    "fingerprint methods must cover every dataclass field",
)
def _rl003(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(node):
            continue
        method = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name in _FINGERPRINT_METHODS
            ),
            None,
        )
        if method is None:
            continue
        fields = _dataclass_fields(node)
        excluded, exclude_stmt = _exclude_set(node)
        referenced: set[str] = set()
        covers_all = False
        for sub in ast.walk(method):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                referenced.add(sub.attr)
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted and dotted.rsplit(".", 1)[-1] in (
                    "asdict",
                    "astuple",
                ):
                    covers_all = True
        if covers_all:
            referenced.update(fields)
        missing = [
            f for f in fields if f not in referenced and f not in excluded
        ]
        if missing:
            yield _finding(
                "RL003",
                src,
                method,
                f"{node.name}.{method.name} omits field(s) "
                f"{', '.join(missing)}: every field must be hashed or "
                "named in _FINGERPRINT_EXCLUDE (with a why), or cached "
                "results go stale silently",
            )
        stale = sorted(excluded - set(fields))
        if stale and exclude_stmt is not None:
            yield _finding(
                "RL003",
                src,
                exclude_stmt,
                f"{node.name}._FINGERPRINT_EXCLUDE names unknown field(s) "
                f"{', '.join(stale)}",
            )


def _imports_cache_key_machinery(tree: ast.AST) -> ast.stmt | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "repro.runtime.cache" for alias in node.names
            ):
                return node
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro.runtime.cache" and any(
                alias.name in _CACHE_KEY_NAMES or alias.name == "*"
                for alias in node.names
            ):
                return node
            if node.module == "repro.runtime" and any(
                alias.name in _CACHE_KEY_NAMES for alias in node.names
            ):
                return node
    return None


@register(
    "RL004",
    "cache-key-marker",
    "cache-key-input modules must carry the blast-radius marker",
)
def _rl004(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    marked = src.has_comment(CACHE_KEY_MARKER)
    import_site = _imports_cache_key_machinery(tree)
    if import_site is not None and not marked:
        yield _finding(
            "RL004",
            src,
            import_site,
            "module feeds cache keys (imports fingerprint/content_key "
            "machinery) but lacks a `# cache-key-input` marker; the "
            "marker is how CACHE_SCHEMA_VERSION reviews enumerate the "
            "blast radius",
        )
    if src.is_under(config.cache_key_upstream) and not marked:
        yield _finding(
            "RL004",
            src,
            tree if hasattr(tree, "lineno") else ast.Pass(lineno=1, col_offset=0),
            "module is an upstream input of cache-key construction "
            "(hashed by repro.runtime.cache) but lacks a "
            "`# cache-key-input` marker",
        )


def _handler_catches_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        dotted = _dotted(t)
        if dotted in ("Exception", "BaseException"):
            return True
    return False


@register(
    "RL005",
    "swallowed-exception",
    "broad except without re-raise hides failures from the runner",
)
def _rl005(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _handler_catches_broad(node):
            continue
        has_raise = any(
            isinstance(sub, ast.Raise)
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if not has_raise:
            yield _finding(
                "RL005",
                src,
                node,
                "broad except swallows the error: re-raise as a tagged "
                "ReproError/DynamicsError, or suppress on this line with "
                "a written reason",
            )


def _is_floaty(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floaty(node.left) or _is_floaty(node.right)
    if isinstance(node, ast.Call):
        return _dotted(node.func) == "float"
    return False


@register(
    "RL006",
    "float-equality",
    "== / != on computed floats is numerically meaningless",
)
def _rl006(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        if any(_is_floaty(operand) for operand in operands):
            yield _finding(
                "RL006",
                src,
                node,
                "float equality: use math.isclose/np.isclose, or suppress "
                "with a reason if the comparison is an exact-sentinel "
                "check by design",
            )


def _track_adopted_names(statements: list[ast.stmt]) -> set[str]:
    adopted: set[str] = set()
    for stmt in statements:
        for sub in _walk_same_scope(stmt):
            if isinstance(sub, ast.Assign) and isinstance(
                sub.value, ast.Call
            ):
                dotted = _dotted(sub.value.func)
                if dotted is None:
                    continue
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in ("resolve_topology", "adopt"):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            adopted.add(target.id)
    return adopted


def _walk_same_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk without descending into nested function/class scopes.

    The scope-introducing node itself is yielded but its body is not
    entered — a module-level walk must not see names bound inside a
    ``def``, and vice versa (those bodies are analyzed as their own
    scope by :func:`_scopes`).
    """
    yield node
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_same_scope(child)


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _scopes(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    yield tree.body  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


@register(
    "RL007",
    "shared-view-write",
    "arrays from Topology.adopt/resolve_topology are shared read-only views",
)
def _rl007(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    for body in _scopes(tree):
        adopted = _track_adopted_names(body)
        if not adopted:
            continue
        for stmt in body:
            for sub in _walk_same_scope(stmt):
                targets: list[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, ast.AugAssign):
                    targets = [sub.target]
                for target in targets:
                    if not isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ):
                        continue
                    root = _root_name(target)
                    if root in adopted:
                        yield _finding(
                            "RL007",
                            src,
                            sub,
                            f"write into {root!r}, a shared-memory "
                            "topology view: these arrays back every "
                            "worker's zero-copy Topology; mutate a "
                            "private np.array(...) copy instead",
                        )
                if isinstance(sub, ast.Call):
                    dotted = _dotted(sub.func)
                    if (
                        dotted
                        and dotted.endswith(".setflags")
                        and _root_name(sub.func) in adopted
                    ):
                        yield _finding(
                            "RL007",
                            src,
                            sub,
                            "setflags on a shared-memory topology view: "
                            "re-enabling writes corrupts every attached "
                            "worker",
                        )


def _all_names(tree: ast.AST) -> set[str]:
    """String entries of the module's ``__all__`` assignments."""
    names: set[str] = set()
    for stmt in tree.body:  # type: ignore[attr-defined]
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            names.update(
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


def _annotation_nodes(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                args.vararg,
                args.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotation_nodes(tree):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    quoted = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _loaded_names(quoted)
    return names


@register(
    "RL008",
    "unused-import",
    "module-level imports nothing references",
)
def _rl008(
    tree: ast.AST, src: SourceFile, config: LintConfig
) -> Iterator[Finding]:
    if src.path.endswith("__init__.py"):
        return  # package facades import to re-export
    used = _loaded_names(tree) | _all_names(tree)
    for stmt in tree.body:  # type: ignore[attr-defined]
        for node in _walk_same_scope(stmt):
            if isinstance(node, ast.Import):
                bound = [
                    (alias, alias.asname or alias.name.split(".", 1)[0])
                    for alias in node.names
                ]
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
            ):
                bound = [
                    (alias, alias.asname or alias.name)
                    for alias in node.names
                    if alias.name != "*"
                ]
            else:
                continue
            for alias, name in bound:
                if name not in used:
                    yield _finding(
                        "RL008",
                        src,
                        alias,
                        f"{name!r} is imported but never used: delete it, "
                        "or name it in __all__ if it is re-exported",
                    )
