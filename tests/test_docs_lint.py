"""Lint: the commands and names the documentation gives exist.

Every ``python -m repro.…`` in the README, ``docs/``, ``examples/`` and
the library's docstrings must name a module that exists and has a
``__main__`` entry, so a deleted CLI cannot live on in a recipe.

Every backticked ``repro.…`` name in the README, ``docs/`` and
``examples/`` must import as a module or resolve as an attribute of
one (a trailing ``*`` matches any attribute with that prefix), so a
deleted module or class cannot live on in a doc.  EXPERIMENTS.md is
out of scope: its history names retired CLIs on purpose.

Every backticked path under ``src/``, ``tests/``, ``benchmarks/``,
``docs/`` or ``examples/`` in the same files, outside fenced recipes,
must exist (a ``*`` or a ``{a,b}`` must match something), and every
``FILE.py::name`` must name a function or class defined in that file,
so a renamed file or test cannot live on in a doc either.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO / "src"

COMMAND = re.compile(r"python3?\s+-m\s+(repro(?:\.\w+)+)")
SPAN = re.compile(r"`+([^`]+)`+")
NAME = re.compile(r"\brepro(?:\.\w+)+\*?")
PATH_ROOTS = ("src/", "tests/", "benchmarks/", "docs/", "examples/")
BRACES = re.compile(r"\{([^{}]*)\}")
#: A fenced block is a recipe: its paths may be files the recipe makes.
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def _doc_files():
    yield REPO / "README.md", (REPO / "README.md").read_text(encoding="utf-8")
    for path in sorted((REPO / "docs").glob("*.md")):
        yield path, path.read_text(encoding="utf-8")
    for path in sorted((REPO / "examples").iterdir()):
        if path.is_file():
            yield path, path.read_text(encoding="utf-8")


def _documented_texts():
    yield from _doc_files()
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


def _resolves(name: str) -> bool:
    """``name`` imports as a module or is an attribute (chain) of one; a
    trailing ``*`` asks for any attribute with that prefix."""
    parts = name.rstrip("*").split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        try:
            found = importlib.util.find_spec(module) is not None
        except ModuleNotFoundError:
            found = False
        if found:
            break
    else:
        return False
    owner = importlib.import_module(module)
    rest = parts[split:]
    if name.endswith("*"):
        if not rest:
            return True
        *rest, prefix = rest
    for attribute in rest:
        if not hasattr(owner, attribute):
            return False
        owner = getattr(owner, attribute)
    return not name.endswith("*") or any(a.startswith(prefix) for a in dir(owner))


def test_every_backticked_repro_name_resolves():
    named = {}
    for path, text in _doc_files():
        for span in SPAN.findall(text):
            for name in NAME.findall(span):
                named.setdefault(name, set()).add(path.relative_to(REPO).as_posix())
    assert "repro.secure.SecureClient" in named, sorted(named)
    missing = {
        name: sorted(where) for name, where in named.items() if not _resolves(name)
    }
    assert not missing, f"documented names that do not exist: {missing}"


def _expand(pattern: str):
    """Shell brace expansion: ``a/{b,c}.py`` -> ``a/b.py``, ``a/c.py``."""
    match = BRACES.search(pattern)
    if match is None:
        return [pattern]
    head, tail = pattern[: match.start()], pattern[match.end():]
    return [
        path
        for choice in match.group(1).split(",")
        for path in _expand(head + choice + tail)
    ]


def _defined_names(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }


def _path_problem(token: str):
    """Why a documented path token is wrong, or None if it holds."""
    path, *names = token.split("::")
    matches = []
    for pattern in _expand(path):
        found = sorted(REPO.glob(pattern)) if "*" in pattern else [REPO / pattern]
        if not any(candidate.exists() for candidate in found):
            return f"no such file: {pattern}"
        matches += found
    for name in names:
        name = name.split("[")[0]  # a parametrised id: test_x[sim]
        for found in matches:
            if name not in _defined_names(found):
                return f"{name} is not defined in {found.relative_to(REPO)}"
    return None


def test_every_backticked_path_exists():
    documented = {}
    for path, text in _doc_files():
        for span in SPAN.findall(FENCE.sub("", text)):
            for token in span.split():
                token = token.rstrip(".,:;)")
                if token.startswith(PATH_ROOTS):
                    documented.setdefault(token, set()).add(
                        path.relative_to(REPO).as_posix()
                    )
    assert "tests/test_layering.py" in documented, sorted(documented)
    broken = {
        token: (problem, sorted(where))
        for token, where in documented.items()
        if (problem := _path_problem(token)) is not None
    }
    assert not broken, f"documented paths that do not exist: {broken}"
