"""Fraction's private slots are written in one place only.

intmat.fraction builds a Fraction by writing its _numerator and
_denominator slots, which the fractions module does not promise to keep;
tests/test_intmat.py checks the result against Fraction(n, d) on every
supported Python. The walk reads the AST of every module of the package
and finds each attribute, and each string, naming one of those slots:
only intmat.fraction may hold them.
"""

import ast
from pathlib import Path

import wedgedyn

SRC = Path(wedgedyn.__file__).resolve().parent

SLOTS = {"_numerator", "_denominator"}
ALLOWED = {("intmat.py", "fraction")}


def _slot_uses(tree):
    """(top-level name or None, line) of each use of a slot name in a module."""
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            attr = isinstance(node, ast.Attribute) and node.attr in SLOTS
            string = isinstance(node, ast.Constant) and node.value in SLOTS
            if attr or string:
                yield name, node.lineno


def test_the_walk_finds_each_kind_of_slot_use():
    tree = ast.parse("x = f._numerator\ndef g(f):\n    f._denominator = 1\n"
                     "    return getattr(f, '_numerator')\n")
    assert list(_slot_uses(tree)) == [(None, 1), ("g", 3), ("g", 4)]


def test_fraction_slots_only_in_the_one_builder():
    places = {}
    for path in sorted(SRC.glob("*.py")):
        for name, line in _slot_uses(ast.parse(path.read_text(encoding="utf-8"))):
            places.setdefault((path.name, name), []).append(line)
    assert {place: lines for place, lines in places.items() if place not in ALLOWED} == {}
    assert set(places) == ALLOWED
