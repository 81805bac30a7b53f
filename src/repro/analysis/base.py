"""Core data model for the invariant linter: findings, rules, registry.

The shapes here deliberately mirror ``repro.optimize.base``: a small ABC
with a ``name`` class attribute, a string-keyed registry populated by a
decorator, and ``ConfigError`` on duplicate or unknown names.  A rule is
cheap, stateless, and synchronous; the engine (``repro.analysis.engine``)
parses every file exactly once and hands each rule the shared syntax
trees, so adding a rule never adds a parse pass.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from abc import ABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigError

__all__ = [
    "Finding",
    "Suppression",
    "SourceFile",
    "Project",
    "Rule",
    "register_rule",
    "rule_names",
    "get_rule_class",
    "all_rules",
]


# ---------------------------------------------------------------------------
# Findings


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``chain`` carries the inference steps behind a cross-module finding
    (call route, payload origin, effect provenance) — empty for plain
    syntactic findings.  It is what ``lint --explain`` prints.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"
    chain: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }
        if self.chain:
            data["chain"] = list(self.chain)
        return data

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)


# ---------------------------------------------------------------------------
# Suppression comments
#
# ``# repro: allow[rule-id] <reason>`` on (or immediately above) the
# offending line silences that rule there.  The reason text is mandatory:
# an allow-comment without one does not suppress anything, which is what
# keeps "zero undocumented suppressions" a property the linter itself
# enforces rather than a review habit.

_ALLOW_RE = re.compile(r"#+\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")


@dataclass(frozen=True)
class Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str

    @property
    def documented(self) -> bool:
        return bool(self.reason.strip(" -—"))

    def covers(self, rule: str) -> bool:
        return self.documented and rule in self.rules


def parse_suppressions(text: str) -> Dict[int, Suppression]:
    """Map 1-based line numbers to allow-comments found on them.

    Only genuine comment tokens count (via :mod:`tokenize`), anchored at
    the start of the comment — the pattern appearing inside a string
    literal or quoted mid-comment is not a suppression.
    """
    found: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.match(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            rules = tuple(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            found[lineno] = Suppression(
                line=lineno, rules=rules, reason=match.group(2).strip()
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable files already surface as syntax-error findings
    return found


# ---------------------------------------------------------------------------
# Parsed sources


@dataclass
class SourceFile:
    """One parsed module plus everything rules commonly need from it."""

    path: str
    text: str
    lines: List[str]
    tree: Optional[ast.AST]
    error: Optional[str] = None
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    parts: Tuple[str, ...] = ()

    @classmethod
    def parse(cls, path: str, text: Optional[str] = None) -> "SourceFile":
        tree: Optional[ast.AST] = None
        error: Optional[str] = None
        if text is None:
            try:
                # decode as the interpreter does: PEP 263 cookie or BOM,
                # else UTF-8
                with tokenize.open(path) as f:
                    text = f.read()
            except (SyntaxError, UnicodeDecodeError) as exc:
                text, error = "", f"syntax error: cannot decode source ({exc})"
        lines = text.splitlines()
        if error is None:
            try:
                tree = ast.parse(text, filename=path)
            except SyntaxError as exc:  # surfaced as a finding by the engine
                error = f"syntax error: {exc.msg} (line {exc.lineno})"
        if tree is not None:
            _link_parents(tree)
        return cls(
            path=path,
            text=text,
            lines=lines,
            tree=tree,
            error=error,
            suppressions=parse_suppressions(text),
            parts=tuple(part.lower() for part in Path(path).parts),
        )

    def in_dir(self, *names: str) -> bool:
        """True when any path segment matches one of ``names``."""
        return any(name in self.parts for name in names)

    def suppressed(self, finding: Finding) -> bool:
        for lineno in (finding.line, finding.line - 1):
            sup = self.suppressions.get(lineno)
            if sup is not None and sup.covers(finding.rule):
                return True
        return False


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_repro_parent", None)


def ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = parent(node)
    while current is not None:
        yield current
        current = parent(current)


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for anc in ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return anc
    return None


@dataclass
class Project:
    """The full linted file set; cross-module rules see all of it."""

    files: List[SourceFile]

    def parsed(self) -> List[SourceFile]:
        return [f for f in self.files if f.tree is not None]


# ---------------------------------------------------------------------------
# Import resolution
#
# Rules match *canonical* dotted names ("time.time", "numpy.random.rand")
# so aliased imports (``import random as _random``, ``import numpy as
# np``, ``from time import time``) cannot dodge a check.


def import_table(tree: ast.AST) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue  # relative imports stay project-local
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def resolve_name(node: ast.AST, table: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name for a Name/Attribute chain, if importable."""
    if isinstance(node, ast.Name):
        return table.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve_name(node.value, table)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


# ---------------------------------------------------------------------------
# Rules and their registry


class Rule(ABC):
    """One machine-checked invariant.

    Subclasses set ``name``/``invariant`` and override ``check_file``
    (called once per parsed module) and/or ``check_project`` (called once
    with the whole file set, for cross-module contracts).
    """

    name: ClassVar[str] = ""
    invariant: ClassVar[str] = ""
    severity: ClassVar[str] = "error"

    def check_file(self, source: SourceFile, project: Project) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        return iter(())

    def finding(self, source: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=source.path,
            line=line,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(name: str):
    """Class decorator registering a :class:`Rule` under ``name``."""

    def decorator(cls: Type[Rule]) -> Type[Rule]:
        if not name:
            raise ConfigError("rule name must be a non-empty string")
        if name in _REGISTRY:
            raise ConfigError(f"rule {name!r} is already registered")
        if not issubclass(cls, Rule):
            raise ConfigError(f"rule {name!r} must subclass Rule")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def rule_names() -> List[str]:
    return sorted(_REGISTRY)


def get_rule_class(name: str) -> Type[Rule]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(rule_names()) or "<none>"
        raise ConfigError(f"unknown rule {name!r}; known rules: {known}") from None


def all_rules() -> List[Rule]:
    return [_REGISTRY[name]() for name in rule_names()]
