"""The package's 17 record classes keep the semantics of frozen records,
and importing the CLI loads none of the dataclass machinery.

Every record builds positionally and by keyword, compares and hashes by
its fields, shows as Name(field=value, ...) and refuses assignment; the
validating constructors still normalize and refuse what they did.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wedgedyn import (
    BetaApproximation,
    BFElement,
    BFGroup,
    DimensionMismatch,
    Eigenvalue,
    Endomorphism,
    GraphPoint,
    InjectivityCertificate,
    IntMatrix,
    Letter,
    LipschitzNormData,
    Loop,
    MapSpec,
    PeriodicPoint,
    RankMismatch,
    RotationSetReport,
    SigmaReport,
    SnfDecomposition,
    SpectralReport,
    TightMap,
    TorusPoint,
    Word,
    bf,
)

SRC = Path(__file__).resolve().parent.parent / "src"

A = IntMatrix(((3, 1), (1, 3)))
B = IntMatrix(((2, 1), (1, 1)))
NORM = LipschitzNormData("sup", None, Fraction(2), 1)
WORDS = (Word((Letter(0, 1), Letter(1, 1))), Word((Letter(1, 1),)))
PHI = TightMap(Endomorphism(2, (Word((Letter(0, 1),) * 3 + (Letter(1, 1),)),
                                Word((Letter(1, 1),) * 3 + (Letter(0, 1),)))))
NAMES = ["SigmaReport", "PeriodicPoint", "SpectralReport", "Eigenvalue", "LipschitzNormData",
         "BetaApproximation", "InjectivityCertificate", "Loop", "RotationSetReport", "MapSpec",
         "IntMatrix", "SnfDecomposition", "TorusPoint", "BFGroup", "BFElement", "Word",
         "Endomorphism"]


def _cases():
    """Per class: its fields in order with values, and one field with
    another value. Built per test, so that no BF group outlives it and
    keeps a tower alive that tests/test_bf.py expects to die."""
    return [
        (SigmaReport, {"c": Fraction(3), "c_sup": Fraction(3), "delta": Fraction(3, 2),
                       "lam": Fraction(3), "norm": NORM, "q2max": Fraction(9)},
         ("delta", Fraction(2))),
        (PeriodicPoint, {"point": GraphPoint(0, Fraction(1, 2)), "period": 1,
                         "least_period": 1, "itinerary": (0,), "translation": (1, 0),
                         "displacement": BFGroup(A, 1).reduce((1, 0)),
                         "alpha_image": TorusPoint((Fraction(1, 3), Fraction(2, 3)))},
         ("translation", (0, 1))),
        (SpectralReport, {"matrix": A, "charpoly": (1, -6, 8),
                          "eigenvalues": (Eigenvalue(Fraction(2), Fraction(0), Fraction(0), 1),),
                          "is_expanding": True, "lambda_lower": Fraction(2)},
         ("is_expanding", False)),
        (Eigenvalue, {"re": Fraction(4), "im": Fraction(0), "eps": Fraction(0),
                      "multiplicity": 1},
         ("multiplicity", 2)),
        (LipschitzNormData, {"kind": "eigenbasis", "gram": (A, 4), "lam": Fraction(2),
                             "radius": 2},
         ("radius", 3)),
        (BetaApproximation, {"map": PHI, "level": 1, "M": 4, "t": ((0, 4), (0, 4)),
                             "values": ((), ()), "tail_bound": None},
         ("tail_bound", Fraction(1, 2))),
        (InjectivityCertificate, {"status": "UNKNOWN", "depth": 3, "delta": Fraction(1, 2),
                                  "witness": None, "norm": "sup"},
         ("depth", 4)),
        (Loop, {"transitions": ((0, 0, (1, 0), 0),)}, ("transitions", ((1, 1, (0, 1), 0),))),
        (RotationSetReport, {"loop_vectors": ((1, (Fraction(1), Fraction(0))),),
                             "hull_vertices": ((Fraction(1), Fraction(0)),),
                             "fixed_point_vectors": (), "period2_vectors": ()},
         ("period2_vectors", ((Fraction(0), Fraction(0)),))),
        (MapSpec, {"name": "phi", "rank": 2, "rules": ("aaab", "bbba")}, ("name", "psi")),
        (IntMatrix, {"rows": ((3, 1), (1, 3))}, ("rows", ((2, 1), (1, 1)))),
        (SnfDecomposition, {"U": IntMatrix.identity(2), "D": A, "V": B}, ("V", A)),
        (TorusPoint, {"coords": (Fraction(1, 3), Fraction(0))},
         ("coords", (Fraction(1, 2), 0))),
        (BFGroup, {"A": A, "k": 2}, ("k", 3)),
        (BFElement, {"group": BFGroup(A, 2), "r": (0, 5)}, ("r", (1, 5))),
        (Word, {"letters": (Letter(0, 1), Letter(1, -1))}, ("letters", (Letter(1, 1),))),
        (Endomorphism, {"rank": 2, "images": WORDS}, ("images", WORDS[::-1])),
    ]


def test_every_record_class_is_covered():
    assert [cls.__name__ for cls, _, _ in _cases()] == NAMES


@pytest.mark.parametrize("i", range(len(NAMES)), ids=NAMES)
def test_record_semantics(i):
    cls, fields, change = _cases()[i]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert [getattr(by_keyword, f) for f in fields] == list(fields.values())
    name, value = change
    other = cls(**{**fields, name: value})
    assert other != by_keyword and getattr(other, name) == value
    assert repr(by_keyword) == (f"{cls.__name__}("
                                + ", ".join(f"{f}={v!r}" for f, v in fields.items()) + ")")
    for attr in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, attr, value)
    assert by_keyword == cls(**fields)
    back = pickle.loads(pickle.dumps(by_keyword))
    assert type(back) is cls and copy.copy(by_keyword) == by_keyword
    assert back == by_keyword or cls is BetaApproximation  # a TightMap compares by identity


def test_record_reprs_read_as_before():
    assert repr(IntMatrix(((3, 1), (1, 3)))) == "IntMatrix(rows=((3, 1), (1, 3)))"
    assert repr(BFGroup(A, 1)) == "BFGroup(A=IntMatrix(rows=((3, 1), (1, 3))), k=1)"
    assert repr(BFGroup(A, 1).reduce((1, 0))) == ("BFElement(group=BFGroup(A=IntMatrix(rows=((3, 1), "
                                      "(1, 3))), k=1), r=(0, 2))")
    assert repr(Word.parse("aB", 2)) == ("Word(letters=(Letter(generator=0, sign=1), "
                                         "Letter(generator=1, sign=-1)))")
    assert repr(MapSpec("phi", 1, ("a",))) == "MapSpec(name='phi', rank=1, rules=('a',))"


def test_bf_group_equality_ignores_its_tower_and_level():
    g1 = BFGroup(B, 2)
    bf._towers.pop(B.rows)
    g2 = BFGroup(IntMatrix(((2, 1), (1, 1))), 2)
    assert g1._tower is not g2._tower and g1._level is not g2._level
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != BFGroup(B, 1) and g1 != BFGroup(A, 2)


def test_validating_constructors():
    assert TorusPoint((Fraction(3, 2), -1, 2)).coords == (Fraction(1, 2), 0, 0)
    with pytest.raises(TypeError, match="torus coordinate"):
        TorusPoint((0.5,))
    g = BFGroup(A, 2)  # diagonal (3, 15)
    with pytest.raises(ValueError, match="outside the SNF box"):
        BFElement(g, (0, 15))
    with pytest.raises(DimensionMismatch):
        BFElement(g, (0,))
    with pytest.raises(TypeError, match="coordinate"):
        BFElement(g, (0, 1.0))
    assert IntMatrix([[True, 2], [3, 4]]).rows == ((1, 2), (3, 4))
    with pytest.raises(DimensionMismatch, match="square"):
        IntMatrix(((1, 2),))
    with pytest.raises(TypeError, match="matrix entry"):
        IntMatrix(((1.5,),))
    assert Word((Letter(0, 1), Letter(1, 1), Letter(1, -1), Letter(0, -1))).letters == ()
    with pytest.raises(RankMismatch):
        Endomorphism(2, WORDS[:1])
    with pytest.raises(RankMismatch):
        Endomorphism(1, (Word((Letter(1, 1),)),))
    with pytest.raises(ValueError, match="k must be >= 1"):
        BFGroup(A, 0)


def test_importing_the_cli_loads_no_dataclass_machinery():
    """dataclasses pulls in inspect, ast, dis and tokenize; start-up pays
    for every module the import loads."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, wedgedyn.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "wedgedyn").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != "dataclasses" for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
