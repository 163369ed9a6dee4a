"""Every name in ``src/hkannuli`` has a caller.

A module-level function or class, or a public method or property, must be
loaded by name in some ``hkannuli`` module other than ``__init__.py``, or be
named as a word in a ``bench/*.py`` file (the benchmark's tracer names the
functions it wraps as strings).  A name that only tests reach belongs in the
tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hkannuli"


def defined_names(tree: ast.Module):
    """Module-level defs and classes, and the public methods of classes."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, definitions):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, definitions) and not item.name.startswith("_"))


def loaded_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_src_name_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    loaded = set().union(*(loaded_names(tree) for name, tree in trees.items()
                           if name != "__init__.py"))
    bench_words = set().union(*(re.findall(r"\w+", path.read_text())
                                for path in (ROOT / "bench").glob("*.py")))
    uncalled = [f"{module}:{name}" for module, tree in trees.items()
                if module not in ("__init__.py", "__main__.py")
                for name in defined_names(tree)
                if name not in loaded and name not in bench_words]
    assert uncalled == []
