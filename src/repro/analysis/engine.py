"""The repro-lint rule engine.

AST-based static analysis encoding the repository's correctness
invariants as lint rules (see ``docs/static-analysis.md``).  The engine
is rule-agnostic: it parses every target file once into a
:class:`SourceModule` (AST with parent links and registered fault
scopes), hands each module to every applicable :class:`Rule`, and
reports every finding; any finding fails the run.

A function is registered as a *fault-injection scope* for rule FLT001
with (the justification after ``--`` is mandatory)::

    def commit(self):
        # repro-lint: flt-scope -- invoked under the engine's requeue handler
        ...
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "SourceModule",
    "Rule",
    "LintResult",
    "Linter",
    "iter_python_files",
    "module_name_for",
    "format_human",
    "format_json",
]

#: The rule ID used for malformed ``repro-lint`` comments and parse errors.
META_RULE = "LINT000"

_MAGIC = re.compile(r"#\s*repro-lint:\s*(?P<body>[^\n]*)")
_FLT_SCOPE = re.compile(r"flt-scope(?P<just>\s*--\s*\S.*)?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    module: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceModule:
    """A parsed source file: AST, parent links, and ``repro-lint`` comments."""

    def __init__(self, path: str, source: str, module: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        #: Lines carrying a justified ``flt-scope`` marker.
        self.flt_scope_lines: Set[int] = set()
        #: LINT000 findings: unjustified markers, unknown directives.
        self.comment_errors: List[Finding] = []
        for lineno, text in enumerate(self.lines, start=1):
            match = _MAGIC.search(text)
            if match is None:
                continue
            body = match.group("body").strip()
            flt = _FLT_SCOPE.match(body)
            if flt is None:
                message = f"unrecognised repro-lint directive: {body!r}"
            elif flt.group("just") is None:
                message = (
                    "flt-scope registration without justification:"
                    " append ' -- <reason>'"
                )
            else:
                self.flt_scope_lines.add(lineno)
                continue
            self.comment_errors.append(
                Finding(META_RULE, path, module, lineno, 0, message)
            )

    # -- AST helpers ----------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def flt_scope_functions(self) -> List[ast.AST]:
        """Function defs registered as fault-injection scopes.

        A marker comment registers the function whose header region
        (the ``def`` line, the line above it, or the lines down to the
        first body statement — i.e. alongside the docstring) contains
        it.
        """
        if not self.flt_scope_lines:
            return []
        registered: List[ast.AST] = []
        for node in ast.walk(self.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            first_body_line = node.body[0].lineno if node.body else node.lineno
            for line in self.flt_scope_lines:
                if node.lineno - 1 <= line <= first_body_line:
                    registered.append(node)
                    break
        return registered

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=rule.id,
            path=self.path,
            module=self.module,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title`` and implement
    :meth:`check`; cross-file rules additionally implement
    :meth:`finalize`, which runs once after every module was checked.
    """

    id: str = "RULE000"
    title: str = ""

    def applies(self, module: str) -> bool:
        """Whether the rule runs on dotted module ``module``."""
        return True

    def check(self, mod: SourceModule) -> Iterable[Finding]:
        """Per-module pass; yields findings."""
        return ()

    def finalize(self, modules: Sequence[SourceModule]) -> Iterable[Finding]:
        """Cross-module pass over every module the rule applied to."""
        return ()


def _scoped(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


class ScopedRule(Rule):
    """A rule restricted to modules under given dotted prefixes."""

    scope: Tuple[str, ...] = ()

    def applies(self, module: str) -> bool:
        if not self.scope:
            return True
        return _scoped(module, self.scope)


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int = 0
    parse_errors: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no file has a finding (or fails to parse)."""
        return not self.findings and not self.parse_errors


def module_name_for(path: Path) -> str:
    """Dotted module name derived from ``path``.

    The name starts at the last path component named ``repro`` (the
    package root), so ``src/repro/core/tier.py`` -> ``repro.core.tier``.
    Files outside a ``repro`` tree fall back to their stem.
    """
    parts = list(path.with_suffix("").parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            parts = parts[i:]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["repro"]
    return ".".join(parts)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Yield ``.py`` files under each path (files pass through)."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


class Linter:
    """Run a rule set over source files."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def run_paths(
        self,
        paths: Sequence[str],
        module_overrides: Optional[Dict[str, str]] = None,
    ) -> LintResult:
        """Lint every Python file under ``paths``.

        ``module_overrides`` maps file path strings to dotted module
        names, letting tests lint fixture files *as if* they lived at a
        given spot in the package (rule scoping keys off the module).
        """
        overrides = module_overrides or {}
        modules: List[SourceModule] = []
        parse_errors: List[Finding] = []
        for path in iter_python_files(paths):
            text = path.read_text(encoding="utf-8")
            name = overrides.get(str(path)) or module_name_for(path)
            try:
                modules.append(SourceModule(str(path), text, name))
            except SyntaxError as exc:
                parse_errors.append(
                    Finding(
                        rule=META_RULE,
                        path=str(path),
                        module=name,
                        line=exc.lineno or 0,
                        col=exc.offset or 0,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        result = self.run_modules(modules)
        result.parse_errors.extend(parse_errors)
        return result

    def run_modules(self, modules: Sequence[SourceModule]) -> LintResult:
        """Lint already-parsed modules."""
        findings: List[Finding] = []
        per_rule_modules: Dict[str, List[SourceModule]] = {}
        for mod in modules:
            findings.extend(mod.comment_errors)
            for rule in self.rules:
                if not rule.applies(mod.module):
                    continue
                per_rule_modules.setdefault(rule.id, []).append(mod)
                findings.extend(rule.check(mod))
        for rule in self.rules:
            scoped = per_rule_modules.get(rule.id, [])
            if scoped:
                findings.extend(rule.finalize(scoped))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintResult(findings=findings, files_checked=len(modules))


def format_human(result: LintResult) -> List[str]:
    """Render a result as human-readable report lines."""
    lines: List[str] = []
    for f in result.parse_errors + result.findings:
        lines.append(f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}")
    lines.append(
        f"repro lint: {len(result.parse_errors) + len(result.findings)}"
        f" error(s), {result.files_checked} file(s) checked"
    )
    return lines


def format_json(result: LintResult) -> str:
    """Render a result as a JSON document string."""
    findings = result.parse_errors + result.findings
    doc = {
        "version": 2,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "errors": len(findings),
            "files_checked": result.files_checked,
            "ok": result.ok,
        },
    }
    return json.dumps(doc, indent=2) + "\n"
