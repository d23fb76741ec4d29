"""No float in the package outside two named places.

The walk reads the AST of every module of the package and finds float and
imaginary literals and calls of float() and complex(). Only two top-level
functions may hold them: spectra._seeds, whose Durand-Kerner estimates are
rounded to Gaussian integers before anything is certified, and
cli.cmd_analyze, whose JSON prints "eps" (and re, im of an inexact
eigenvalue) as a float, as the committed out/*_analyze.json files do.
"""

import ast
from pathlib import Path

import wedgedyn

SRC = Path(wedgedyn.__file__).resolve().parent

ALLOWED = {("spectra.py", "_seeds"), ("cli.py", "cmd_analyze")}


def _float_uses(tree):
    """(top-level name or None, line) of each float use in a module."""
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            literal = isinstance(node, ast.Constant) and type(node.value) in (float, complex)
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "complex"))
            if literal or call:
                yield name, node.lineno


def test_the_walk_finds_each_kind_of_float():
    tree = ast.parse("a = 0.5\nb = 2j\ndef f(x):\n    return float(x) + complex(x)\n")
    assert list(_float_uses(tree)) == [(None, 1), (None, 2), ("f", 4), ("f", 4)]


def test_floats_only_in_the_seeds_and_the_analyze_output():
    places = {}
    for path in sorted(SRC.glob("*.py")):
        for name, line in _float_uses(ast.parse(path.read_text(encoding="utf-8"))):
            places.setdefault((path.name, name), []).append(line)
    assert {place: lines for place, lines in places.items() if place not in ALLOWED} == {}
    assert set(places) == ALLOWED
