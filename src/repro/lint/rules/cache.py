"""CACHE rule pack: analysis-cache safety.

``AnalysisCache`` (``repro/core/cache.py``) memoizes window-count grids
and per-system summaries and hands the *same objects* to every
consumer.  Two invariants keep
that sound, and each gets a rule:

* **CACHE001** -- a function that consumes cache grids must not mutate
  its array arguments in place: the arrays it receives (or passes on)
  may be shared cache state, and an in-place ``sort``/``[...] =``/
  ``out=`` write corrupts every later cache hit.
* **CACHE002** -- a memoized helper's cache key must cover every
  parameter its compute callable closes over; a key that omits one
  silently serves stale values when that parameter changes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding, FindingCollector, Severity
from ..registry import register

#: Method names whose call marks a function as a grid consumer.
GRID_METHODS = frozenset(
    {"baseline", "baseline_grid", "conditional", "conditional_grid"}
)
#: Module-level grid helpers (``from ..core.cache import ...``).
GRID_FUNCTIONS = frozenset(
    {"pooled_baseline_grid", "pooled_conditional_grid"}
)

#: ndarray (and list) methods that mutate the receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "clear",
        "extend",
        "fill",
        "insert",
        "itemset",
        "partition",
        "pop",
        "put",
        "remove",
        "resize",
        "reverse",
        "setfield",
        "setflags",
        "sort",
    }
)

#: Callables whose *argument* is mutated in place (numpy in-place ops
#: and shufflers).
_ARG_MUTATORS = frozenset({"shuffle"})


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return {n for n in names if n not in ("self", "cls")}


def _consumes_grids(ctx: ModuleContext, fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in GRID_METHODS
        ):
            return True
        resolved = ctx.resolve_call(node)
        if resolved and resolved.rpartition(".")[2] in GRID_FUNCTIONS:
            return True
    return False


def _root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of a Subscript/Attribute chain, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _param_mutations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, params: set[str]
) -> Iterator[tuple[ast.AST, str, str]]:
    """Yield ``(node, param, how)`` for in-place writes to parameters."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    name = _root_name(target)
                    if name in params:
                        yield node, name, "item assignment"
        elif isinstance(node, ast.AugAssign):
            name = _root_name(node.target)
            if name in params:
                how = (
                    "augmented item assignment"
                    if isinstance(node.target, ast.Subscript)
                    else "augmented assignment (in-place for ndarrays)"
                )
                yield node, name, how
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in params
            ):
                yield node, node.func.value.id, f".{node.func.attr}() call"
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _ARG_MUTATORS
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in params:
                        yield node, arg.id, f".{node.func.attr}() argument"
            for kw in node.keywords:
                if (
                    kw.arg == "out"
                    and isinstance(kw.value, ast.Name)
                    and kw.value.id in params
                ):
                    yield node, kw.value.id, "out= target"


@register(
    "CACHE001",
    severity=Severity.ERROR,
    summary="grid consumer mutates an array argument in place",
)
def check_grid_consumer_mutation(ctx: ModuleContext) -> Iterator[Finding]:
    out = FindingCollector(ctx.relpath)
    for fn in _functions(ctx.tree):
        if not _consumes_grids(ctx, fn):
            continue
        params = _param_names(fn)
        for node, param, how in _param_mutations(fn, params):
            out.add(
                "CACHE001",
                Severity.ERROR,
                node,
                f"function '{fn.name}' consumes AnalysisCache grids but "
                f"mutates its argument '{param}' in place ({how}); grid "
                "arrays are shared memoized state -- copy before writing",
            )
    yield from out.findings


def _collected_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _resolve_key_expr(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, key: ast.AST
) -> ast.AST:
    """Follow one level of local assignment when the key is a bare name."""
    if not isinstance(key, ast.Name):
        return key
    latest: ast.AST | None = None
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == key.id for t in node.targets
        ):
            if node.lineno <= key.lineno:
                latest = node.value
    return latest if latest is not None else key


def _cache_owner(receiver: ast.AST) -> set[str]:
    """The parameter that selects the cache itself, if any.

    Only the bare-name argument of a ``get_cache(...)`` receiver (``ds``
    in ``get_cache(ds).summary(...)``) is keyed by the receiver and
    need not appear in the key tuple.  A name used any other way in the
    receiver -- ``systems`` in ``get_cache(systems[0])`` -- selects one
    cache but does not key what the compute reads from the rest of it.
    """
    if (
        isinstance(receiver, ast.Call)
        and ast.unparse(receiver.func).rpartition(".")[2] == "get_cache"
        and len(receiver.args) == 1
        and isinstance(receiver.args[0], ast.Name)
    ):
        return {receiver.args[0].id}
    return set()


@register(
    "CACHE002",
    severity=Severity.ERROR,
    summary="memo key omits a parameter used by the compute callable",
)
def check_memo_key_covers_params(ctx: ModuleContext) -> Iterator[Finding]:
    out = FindingCollector(ctx.relpath)
    for fn in _functions(ctx.tree):
        params = _param_names(fn)
        if not params:
            continue
        for node in ast.walk(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "summary"
                and len(node.args) >= 2
            ):
                continue
            key_expr = _resolve_key_expr(fn, node.args[0])
            compute = node.args[1]
            if not isinstance(compute, (ast.Lambda,)):
                continue  # can't see into named callables; stay quiet
            used = _collected_names(compute.body) & params
            lambda_params = {a.arg for a in compute.args.args}
            used -= lambda_params
            used -= _cache_owner(_resolve_key_expr(fn, node.func.value))
            keyed = _collected_names(key_expr)
            missing = sorted(used - keyed)
            if missing:
                out.add(
                    "CACHE002",
                    Severity.ERROR,
                    node,
                    f"memoized call in '{fn.name}' omits parameter(s) "
                    f"{', '.join(missing)} from its cache key while the "
                    "compute callable uses them; stale values will be "
                    "served when they change",
                )
    yield from out.findings
