"""CONC rule pack: concurrency under the project's thread roots.

The streaming ingest pipeline drains a bounded queue on the consumer
thread while a producer thread feeds it (``stream/ingest.py``).  The
bit-identity guarantee assumes the two threads only share the queue and
the lock-guarded telemetry registry.  Any *other* module-level mutable
state written by code a thread root can reach is a data race and an
ordering hazard.

* **CONC001** -- a function reachable from a concurrency root (via the
  conservative intra-package call graph in
  :mod:`repro.lint.callgraph`) writes to module-level state: a
  ``global`` rebind, an item/attribute assignment on a module-level
  name, or a mutating method call (``append``/``update``/...) on one.

Roots are discovered statically: every function referenced by a
module's ``STREAM_CONSUMER_ROOTS`` table (the ingest pipeline's
producer/consumer entry points).  Modules under
``telemetry/`` are exempt as write *sites* (the registry serialises
its mutations behind a lock).
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from ..callgraph import FuncKey, build_call_graph, names_in
from ..context import ModuleContext
from ..findings import Finding, FindingCollector, Severity
from ..registry import register

#: Methods that mutate their receiver (dict/list/set and friends).
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: The table naming the stream ingest pipeline's thread entry points.
CONSUMER_TABLE = "STREAM_CONSUMER_ROOTS"


def _module_globals(ctx: ModuleContext) -> set[str]:
    """Names bound by module-top-level assignments (mutable candidates)."""
    out: set[str] = set()
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    out.add(node.id)
    return out


def _local_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function rebinds locally (shadowing module globals)."""
    args = fn.args
    bound = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            for sub in ast.walk(node.optional_vars):
                if isinstance(sub, ast.Name):
                    bound.add(sub.id)
    return bound - declared_global


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _global_writes(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, module_globals: set[str]
) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, name, how)`` for writes to module-level state."""
    declared: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared.update(node.names)
    shadowed = _local_bindings(fn)

    def is_module_level(name: str | None) -> bool:
        if name is None:
            return False
        if name in declared:
            return True
        return name in module_globals and name not in shadowed

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id in declared:
                        yield node, target.id, "global rebind"
                elif isinstance(target, (ast.Subscript, ast.Attribute)):
                    name = _root_name(target)
                    if is_module_level(name):
                        how = (
                            "item assignment"
                            if isinstance(target, ast.Subscript)
                            else "attribute assignment"
                        )
                        yield node, name, how
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                if node.target.id in declared:
                    yield node, node.target.id, "global rebind"
            else:
                name = _root_name(node.target)
                if is_module_level(name):
                    yield node, name, "augmented assignment"
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and is_module_level(node.func.value.id)
            ):
                yield node, node.func.value.id, f".{node.func.attr}() call"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                name = (
                    target.id
                    if isinstance(target, ast.Name)
                    else _root_name(target)
                )
                if name in declared or (
                    isinstance(target, (ast.Subscript, ast.Attribute))
                    and is_module_level(name)
                ):
                    yield node, name or "?", "del statement"


def _table_value(ctx: ModuleContext, table_name: str) -> ast.expr | None:
    """The value assigned to ``table_name`` at module top level, if any."""
    table = None
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == table_name
            for t in stmt.targets
        ):
            table = stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == table_name
            and stmt.value is not None
        ):
            table = stmt.value
    return table


def _thread_roots(contexts: Sequence[ModuleContext]) -> list[FuncKey]:
    """Concurrency entry points, found statically and sorted."""
    roots: list[FuncKey] = []
    for ctx in contexts:
        consumers = _table_value(ctx, CONSUMER_TABLE)
        if consumers is None:
            continue
        module_defs = {
            stmt.name
            for stmt in ctx.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        roots.extend(
            (ctx.module, name) for name in names_in(consumers) & module_defs
        )
    return sorted(roots)


@register(
    "CONC001",
    severity=Severity.ERROR,
    summary="module-level state written by thread-reachable code",
    scope="project",
)
def check_thread_reachable_global_writes(
    contexts: Sequence[ModuleContext],
) -> Iterator[Finding]:
    roots = _thread_roots(contexts)
    if not roots:
        return
    graph = build_call_graph(contexts)
    reachable = graph.reachable_from(roots)
    by_module = {ctx.module: ctx for ctx in contexts}
    globals_cache: dict[str, set[str]] = {}
    for key in sorted(reachable):
        module, name = key
        ctx = by_module.get(module)
        if ctx is None or ctx.package_part("telemetry"):
            continue
        info = graph.functions[key]
        if module not in globals_cache:
            globals_cache[module] = _module_globals(ctx)
        out = FindingCollector(ctx.relpath)
        path = graph.path_to(key, reachable)
        chain = " -> ".join(f"{m}:{f}" for m, f in path)
        for node, global_name, how in _global_writes(
            info.node, globals_cache[module]
        ):
            out.add(
                "CONC001",
                Severity.ERROR,
                node,
                f"function '{name}' writes module-level state "
                f"'{global_name}' ({how}) and is reachable from "
                f"the stream consumer loop via {chain}; shared mutable state "
                "under concurrency races -- move it into AnalysisCache "
                "or pass it explicitly",
            )
        yield from out.findings
