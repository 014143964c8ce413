"""Per-module analysis context: AST, imports, suppressions, location.

Every rule receives a :class:`ModuleContext` and reads the parsed tree
plus the resolution helpers from it, so the (mildly fiddly) work of
mapping ``np.random.default_rng`` back to ``numpy.random.default_rng``
or deciding whether a file lives inside ``repro/telemetry/`` is done
exactly once per file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

#: ``# repro: noqa`` / ``# repro: noqa DET001,TEL001`` suppression
#: comments.  A bare ``noqa`` suppresses every rule on that line; a
#: rule list suppresses only those IDs.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:[:\s]+(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?",
)

#: Sentinel stored in the suppression map for a bare ``noqa``.
ALL_RULES = frozenset({"*"})


def parse_noqa(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule IDs suppressed on them."""
    out: dict[int, frozenset[str]] = {}
    for i, line in enumerate(lines, start=1):
        if "repro" not in line or "noqa" not in line:
            continue
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[i] = ALL_RULES
        else:
            out[i] = frozenset(r.strip() for r in rules.split(","))
    return out


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, walking up through ``__init__.py``.

    ``src/repro/core/report.py`` -> ``repro.core.report``; a standalone
    file (no enclosing package) is just its stem.  Lets rules reason
    about package location (``in_package("repro.telemetry")``) without
    importing anything.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    module: str
    lines: list[str] = field(default_factory=list)
    noqa: dict[int, frozenset[str]] = field(default_factory=dict)
    #: alias -> fully dotted target for ``import x [as y]`` and
    #: ``from pkg import name [as alias]`` statements (module-level and
    #: nested; later bindings win, which matches runtime semantics
    #: closely enough for linting).
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, relpath: str | None = None) -> "ModuleContext":
        """Parse ``path`` into a context (raises ``SyntaxError``)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        lines = source.splitlines()
        ctx = cls(
            path=path,
            relpath=(relpath or str(path)).replace("\\", "/"),
            source=source,
            tree=tree,
            module=module_name_for(path),
            lines=lines,
            noqa=parse_noqa(lines),
        )
        ctx._collect_imports()
        return ctx

    # -- location helpers ---------------------------------------------------

    def in_package(self, prefix: str) -> bool:
        """True when this module is ``prefix`` or lives under it."""
        return self.module == prefix or self.module.startswith(prefix + ".")

    def package_part(self, name: str) -> bool:
        """True when ``name`` appears as a dotted component of the module."""
        return name in self.module.split(".")

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is noqa'd on ``line``."""
        suppressed = self.noqa.get(line)
        if suppressed is None:
            return False
        return suppressed is ALL_RULES or rule in suppressed

    # -- name resolution ----------------------------------------------------

    def _collect_imports(self) -> None:
        pkg_parts = self.module.split(".")
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Resolve ``from ..x import y`` against our location.
                    anchor = pkg_parts[: len(pkg_parts) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def dotted(self, node: ast.AST) -> str | None:
        """The source-level dotted path of a Name/Attribute chain."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted name of an expression, if derivable.

        ``np.random.default_rng`` resolves through ``import numpy as
        np`` to ``numpy.random.default_rng``; a bare name imported via
        ``from x import y`` resolves to ``x.y``; anything rooted in a
        local object resolves to its source-level spelling.
        """
        dotted = self.dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def resolve_call(self, call: ast.Call) -> str | None:
        """:meth:`resolve` applied to a call's function expression."""
        return self.resolve(call.func)
