"""The linting engine: collect files, parse once, run every rule.

``lint_paths`` is the single entry point the CLI, CI, and tests share.
Each file is read and parsed exactly once into a :class:`SourceFile`;
per-file rules then iterate the shared trees and cross-module rules see
the whole :class:`Project`.  Suppression filtering and ordering happen
here so rules stay pure generators of findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.analysis import rules as _rules  # noqa: F401  (registers the rule set)
from repro.analysis import dataflow as _dataflow  # noqa: F401  (cross-module rules)
from repro.analysis import effects as _effects  # noqa: F401  (effect-inference rules)
from repro.analysis import resources as _resources  # noqa: F401  (resource rule)
from repro.analysis.base import (
    Finding,
    Project,
    Rule,
    SourceFile,
    get_rule_class,
    rule_names,
)
from repro.errors import ConfigError

__all__ = [
    "collect_files",
    "lint_paths",
    "lint_files",
    "lint_sources",
    "run_lint",
    "LintReport",
    "format_text",
    "format_json",
]


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into a sorted, deduplicated file list."""
    out: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(str(p) for p in sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(str(path))
        else:
            raise ConfigError(f"lint path does not exist: {raw}")
    seen = set()
    unique = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _resolve_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> List[Rule]:
    known = rule_names()
    chosen = list(select) if select else known
    dropped = set(ignore) if ignore else set()
    for name in list(chosen) + sorted(dropped):
        get_rule_class(name)  # raises ConfigError on unknown ids
    return [get_rule_class(name)() for name in chosen if name not in dropped]


def lint_sources(
    sources: Sequence[SourceFile],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the (selected) rule set over already-parsed sources."""
    active = _resolve_rules(select, ignore)
    project = Project(files=list(sources))
    by_path = {source.path: source for source in project.files}

    findings: List[Finding] = [
        Finding(rule="syntax-error", path=s.path, line=1, message=s.error)
        for s in project.files
        if s.error is not None
    ]
    for rule in active:
        for source in project.parsed():
            findings.extend(rule.check_file(source, project))
        findings.extend(rule.check_project(project))

    kept = []
    for finding in findings:
        source = by_path.get(finding.path)
        if source is None or not source.suppressed(finding):
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


def lint_files(
    files: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    return lint_sources(
        [SourceFile.parse(path) for path in files], select=select, ignore=ignore
    )


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint files and directories; directories are searched for ``*.py``."""
    return lint_files(collect_files(paths), select=select, ignore=ignore)


@dataclass
class LintReport:
    """Result of :func:`run_lint`: the findings and how many files
    were linted."""

    findings: List[Finding]
    n_files: int


def run_lint(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Lint files and directories, keeping the file count for reports."""
    files = collect_files(paths)
    findings = lint_files(files, select=select, ignore=ignore)
    return LintReport(findings=findings, n_files=len(files))


def format_text(
    findings: Sequence[Finding],
    n_files: Optional[int] = None,
    baselined: Optional[Sequence[Finding]] = None,
    show_baselined: bool = True,
) -> str:
    """Render findings; with a baseline in play, ``findings`` are the
    *new* ones (they alone decide the exit status) and ``baselined``
    the accepted pre-existing ones (listed unless ``--diff``)."""
    lines = [finding.format() for finding in findings]
    if baselined and show_baselined:
        lines.extend(f"{finding.format()} [baselined]" for finding in baselined)
    if findings:
        summary = f"{len(findings)} finding(s)"
        if baselined is not None:
            summary = f"{len(findings)} new finding(s), {len(baselined)} baselined"
        lines.append(summary)
    else:
        suffix = f" in {n_files} file(s)" if n_files is not None else ""
        if baselined:
            suffix += f" ({len(baselined)} baselined)"
        lines.append(f"clean: no new findings{suffix}" if baselined is not None
                     else f"clean: no findings{suffix}")
    return "\n".join(lines)


def format_json(
    findings: Sequence[Finding],
    n_files: Optional[int] = None,
    baselined: Optional[Sequence[Finding]] = None,
    show_baselined: bool = True,
) -> str:
    payload = {
        "count": len(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    if baselined is not None:
        payload["new_count"] = len(findings)
        payload["baselined_count"] = len(baselined)
        if show_baselined:
            payload["baselined"] = [finding.to_dict() for finding in baselined]
    if n_files is not None:
        payload["files"] = n_files
    return json.dumps(payload, indent=2, sort_keys=True)
