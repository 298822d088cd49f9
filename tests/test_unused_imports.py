"""Every name a ``src/repro`` module or a ``tests/*.py`` file imports is
referenced in that module.

No linter ships with the project, so this AST scan stands in for one
rule of it. A name counts as referenced when it appears anywhere in the
module as an identifier, inside a string annotation, or in ``__all__``
(re-exports). Imports under ``if TYPE_CHECKING:`` are exempt.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"


def _type_checking_imports(tree: ast.AST) -> Set[int]:
    exempt: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(
                node.test):
            exempt.update(id(child) for statement in node.body
                          for child in ast.walk(statement))
    return exempt


def _imported(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    exempt = _type_checking_imports(tree)
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _referenced(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            names.update(_annotation_names(annotation))
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(element.value for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant))
    return names


def unused_imports(source: str) -> List[Tuple[int, str]]:
    """``(line, name)`` of every import in ``source`` never referenced."""
    tree = ast.parse(source)
    referenced = _referenced(tree)
    return [(line, name) for name, line in _imported(tree)
            if name not in referenced]


def _scanned() -> List[pathlib.Path]:
    return sorted(SRC.rglob("*.py")) + sorted(TESTS.glob("*.py"))


def test_scan_sees_the_package():
    assert len(list(SRC.rglob("*.py"))) > 50
    assert len(list(TESTS.glob("*.py"))) > 50


def test_no_unused_imports():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in _scanned()
              for line, name in unused_imports(path.read_text())]
    assert unused == [], "imported but never referenced:\n" + "\n".join(
        unused)


def test_scan_flags_an_unused_name():
    assert unused_imports(
        "from typing import TYPE_CHECKING, Dict, Tuple\n"
        "import os.path\n"
        "from repro import errors as _errors\n"
        "__all__ = ['_errors']\n"
        "if TYPE_CHECKING:\n"
        "    from typing import Iterable\n"
        "def f(x: 'Dict[str, int]') -> None:\n"
        "    return os.sep\n") == [(1, "Tuple")]
