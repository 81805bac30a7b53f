"""No module of ``src/repro`` imports a name it never reads.

An import is read when its bound name appears as a name anywhere in the
module, quoted annotations and ``__all__`` strings included.  Package
``__init__.py`` files (which re-export), ``from __future__`` imports and
import statements marked ``# noqa: F401`` (imports kept for their side
effects, such as rule registration) are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _read_names(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _imports(tree: ast.AST, lines: List[str]) -> Iterator[Tuple[int, str]]:
    """(line, bound name) of every checked import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if isinstance(node, ast.Import) and alias.asname is None:
                yield node.lineno, alias.name.split(".")[0]
            else:
                yield node.lineno, alias.asname or alias.name


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    read = _read_names(tree)
    return [(line, name) for line, name in _imports(tree, text.splitlines()) if name not in read]


def test_src_has_no_unused_imports():
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert found == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List\n"
        "from x import y  # noqa: F401\n"
        "import json as j\n"
        "def f(a: 'Dict[str, int]') -> None:\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(3, "List"), (5, "j")]
