"""Lint: the commands the documentation gives can be run.

Every ``python -m repro.…`` in the README, ``docs/``, ``examples/`` and
the library's docstrings must name a module that exists and has a
``__main__`` entry, so a deleted CLI cannot live on in a recipe.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO / "src"

COMMAND = re.compile(r"python3?\s+-m\s+(repro(?:\.\w+)+)")


def _documented_texts():
    yield REPO / "README.md", (REPO / "README.md").read_text(encoding="utf-8")
    for path in sorted((REPO / "docs").glob("*.md")):
        yield path, path.read_text(encoding="utf-8")
    for path in sorted((REPO / "examples").iterdir()):
        if path.is_file():
            yield path, path.read_text(encoding="utf-8")
    for path in sorted((SRC_ROOT / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                docstring = ast.get_docstring(node)
                if docstring:
                    yield path, docstring


def _has_main_entry(module: str) -> bool:
    spec = importlib.util.find_spec(module)
    if spec is None or spec.origin is None:
        return False
    if spec.submodule_search_locations is not None:  # a package
        return importlib.util.find_spec(module + ".__main__") is not None
    tree = ast.parse(Path(spec.origin).read_text(encoding="utf-8"))
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        for node in tree.body
    )


def test_every_documented_python_m_target_has_a_main_entry():
    documented = {}
    for path, text in _documented_texts():
        for match in COMMAND.finditer(text):
            documented.setdefault(match.group(1), set()).add(
                path.relative_to(REPO).as_posix()
            )
    assert "repro.transport.daemon" in documented, sorted(documented)
    missing = {
        module: sorted(where)
        for module, where in documented.items()
        if not _has_main_entry(module)
    }
    assert not missing, f"documented commands that cannot run: {missing}"
