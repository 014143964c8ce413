"""TEL rule pack: telemetry hygiene.

Telemetry is off by default and every instrumented call site must cost
one module-global check when disabled (the CI perf gate asserts this).
Two ways code breaks that contract, one rule each:

* **TEL001** -- calling the *registry* mutators
  (``REGISTRY.counter_add`` / ``registry().observe`` ...) inside a
  loop: the registry methods record unconditionally, bypassing
  the ``_enabled`` fast path that the module-level wrappers
  (``telemetry.counter_add`` ...) provide.  Per-iteration cost then
  survives even with telemetry off.
* **TEL002** -- telemetry side effects at import time (module-level
  ``enable_metrics()`` / ``start_trace()`` / counter writes):
  importing an analysis module must never flip the global switches or
  record data, or the telemetry-off byte-identity guarantee depends on
  import order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import ModuleContext
from ..findings import Finding, FindingCollector, Severity
from ..registry import register

#: Metric-mutating registry methods (unguarded; always record).
REGISTRY_MUTATORS = frozenset({"counter_add", "gauge_set", "observe"})

#: Module-level telemetry calls that flip global state or record data;
#: any of these at import time is a side effect.
IMPORT_TIME_EFFECTS = frozenset(
    {
        "counter_add",
        "disable_metrics",
        "enable_metrics",
        "gauge_set",
        "observe",
        "reset_metrics",
        "set_metrics_enabled",
        "start_trace",
    }
)


def _is_registry_receiver(ctx: ModuleContext, node: ast.AST) -> bool:
    """True when ``node`` evaluates to the global metrics registry."""
    if isinstance(node, ast.Name):
        resolved = ctx.resolve(node) or node.id
        return resolved.rpartition(".")[2] == "REGISTRY"
    if isinstance(node, ast.Attribute):
        resolved = ctx.resolve(node)
        return bool(resolved) and resolved.rpartition(".")[2] == "REGISTRY"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node)
        return bool(resolved) and resolved.rpartition(".")[2] == "registry"
    return False


def _loop_bodies(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for stmt in (*node.body, *node.orelse):
                yield stmt


@register(
    "TEL001",
    severity=Severity.WARNING,
    summary="unguarded registry mutator inside a loop",
)
def check_registry_mutator_in_loop(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package_part("telemetry"):
        return
    out = FindingCollector(ctx.relpath)
    for body_stmt in _loop_bodies(ctx.tree):
        for node in ast.walk(body_stmt):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTRY_MUTATORS
            ):
                continue
            if _is_registry_receiver(ctx, node.func.value):
                out.add(
                    "TEL001",
                    Severity.WARNING,
                    node,
                    f"registry.{node.func.attr}() inside a loop bypasses "
                    "the telemetry no-op fast path (the registry always "
                    "records); use the guarded module-level "
                    f"telemetry.{node.func.attr}() wrapper, hoisted out "
                    "of the loop where possible",
                )
    yield from out.findings


def _telemetry_call_name(ctx: ModuleContext, call: ast.Call) -> str | None:
    """The effect name when ``call`` is a telemetry mutator/enabler."""
    resolved = ctx.resolve_call(call)
    if not resolved:
        return None
    head, _, tail = resolved.rpartition(".")
    if tail not in IMPORT_TIME_EFFECTS:
        return None
    if "telemetry" in head.split("."):
        return tail
    # ``from repro.telemetry import enable_metrics`` resolves the bare
    # name through the import map; a same-named local helper does not.
    if head == "" and ctx.imports.get(tail, "").startswith("repro.telemetry"):
        return tail  # pragma: no cover - defensive; resolve() covers this
    return None


def _walk_eager(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that stops at deferred-execution boundaries.

    Code inside lambdas and nested function definitions runs at *call*
    time, so it is not an import-time effect even when the definition
    itself is evaluated at import.
    """
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        yield from _walk_eager(child)


@register(
    "TEL002",
    severity=Severity.ERROR,
    summary="telemetry side effect at import time",
)
def check_import_time_telemetry(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.package_part("telemetry"):
        return
    out = FindingCollector(ctx.relpath)

    def scan_statements(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue  # runs at call time, not import time
            if isinstance(stmt, (ast.If, ast.Try, ast.With)):
                for _, value in ast.iter_fields(stmt):
                    if isinstance(value, list) and value and isinstance(
                        value[0], ast.stmt
                    ):
                        scan_statements(value)
                continue
            for node in _walk_eager(stmt):
                if isinstance(node, ast.Call):
                    name = _telemetry_call_name(ctx, node)
                    if name:
                        out.add(
                            "TEL002",
                            Severity.ERROR,
                            node,
                            f"telemetry {name}() at import time; enabling "
                            "or recording telemetry must happen inside an "
                            "entry point, never as an import side effect",
                        )

    scan_statements(ctx.tree.body)
    yield from out.findings
