"""Every name the package exports has a caller inside the package.

A name that only the tests use belongs in tests/oracles.py (or in the test
that needs it), not in the library. The walk reads the AST of every module
but __init__.py, so docstrings and comments do not count as callers.
The docstring examples of every module run here as well.
"""

import ast
import doctest
import importlib
import inspect
import pkgutil
import types
from functools import cached_property
from pathlib import Path

import wedgedyn

SRC = Path(wedgedyn.__file__).resolve().parent

# exported, but with no caller yet; each waits for the ROADMAP item named
ALLOWED = {
    "upsilon",  # item 2: the cross-level check of the Nielsen census
    "TightMap.shadowing_classes",  # item 2: index sums per class
    "TightMap.eval_iter",  # item 1: perfbench/tracer.py rebinds it
    "Endomorphism.power",  # item 1: perfbench/tracer.py rebinds it
}


def _references():
    """(names, attributes) that occur in the package's own modules."""
    names, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def _exported():
    return {name: obj for name in wedgedyn.__all__
            if not isinstance(obj := getattr(wedgedyn, name), types.ModuleType)}


def _public_methods(cls):
    """Public methods and properties that cls itself defines."""
    kinds = (types.FunctionType, staticmethod, classmethod, property, cached_property)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and isinstance(value, kinds)]


def test_every_export_has_a_caller_in_the_package():
    names, attrs = _references()
    unused = set()
    for name, obj in _exported().items():
        if name not in names and name not in attrs:
            unused.add(name)
        if inspect.isclass(obj) and obj.__module__.startswith("wedgedyn."):
            unused.update(f"{name}.{m}" for m in _public_methods(obj) if m not in attrs)
    assert unused == ALLOWED


def test_module_doctests():
    """The docstring examples of every module pass; __main__ is left out,
    since importing it runs the CLI."""
    results = {name: doctest.testmod(importlib.import_module(f"wedgedyn.{name}"))
               for _, name, _ in pkgutil.iter_modules(wedgedyn.__path__) if name != "__main__"}
    with_examples = {name for name, r in results.items() if r.attempted}
    assert with_examples == {"bf", "intmat", "polys", "svg", "words"}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
