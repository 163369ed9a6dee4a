"""Every name in ``src/hkannuli`` has a caller, and the package exports
no module.

A module-level function, class or constant, or a public method or property,
must be loaded by name in some ``hkannuli`` module other than
``__init__.py``, or be one of ``KEPT_FOR_BENCH``.  A name that only tests
reach belongs in the tests."""

import ast
import re
from pathlib import Path
from types import ModuleType

import hkannuli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hkannuli"

# The names that only the benchmark reaches: its tracer wraps three of them
# and reads the cache of ``arcs._crossing_events`` by name, and its census
# workload reads ``CensusReport.entries``.  Each must still be named in
# ``bench/*.py``, so the set can only shrink.
KEPT_FOR_BENCH = {"_crossing_events", "alternating", "interpolating", "non_type41_window",
                  "entries"}


def defined_names(tree: ast.Module):
    """Module-level defs, classes and ``NAME = ...`` constants, and the
    public methods of classes."""
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, definitions):
            yield node.name
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        yield from (target.id for target in targets if isinstance(target, ast.Name)
                    and target.id not in ("__all__", "__version__"))
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
    uncalled = {name for module, tree in trees.items()
                if module not in ("__init__.py", "__main__.py")
                for name in defined_names(tree) if name not in loaded}
    assert uncalled == KEPT_FOR_BENCH
    bench_words = set().union(*(re.findall(r"\w+", path.read_text())
                                for path in (ROOT / "bench").glob("*.py")))
    assert KEPT_FOR_BENCH <= bench_words


def test_public_api_binds_no_module():
    assert hkannuli.__all__
    assert [name for name in hkannuli.__all__
            if isinstance(getattr(hkannuli, name), ModuleType)] == []
    namespace: dict = {}
    exec("from hkannuli import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, ModuleType)] == []
