import argparse
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from wedgedyn import (
    BFGroup,
    DimensionMismatch,
    Endomorphism,
    IntMatrix,
    SingularMatrix,
    TightMap,
    VERTEX,
    beta_breakpoints,
    beta_figure,
    char_poly,
    cover_point,
    enumerate_fixed,
    graph_point,
    minimal_loops,
    rat_inverse,
    rotation_set,
    shadow_pairs,
    snf,
    tail_bound,
)
from wedgedyn.cli import cmd_beta, cmd_bf
from wedgedyn.intmat import fraction, kernel


def int_matrix(n, lo=-9, hi=9):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: IntMatrix(tuple(tuple(r) for r in rows)))


# unbounded draws stay mostly small, so the second branch reaches past 2^64
_NUMS = st.one_of(st.integers(), st.integers(-2 ** 200, 2 ** 200))
_DENS = st.one_of(st.integers(min_value=1), st.integers(1, 2 ** 200))


@settings(max_examples=300, deadline=None)
@given(_NUMS, _DENS)
@example(0, 7)
@example(-6, 4)
@example(2 ** 64 + 1, 2 ** 64 - 1)
@example(-(3 ** 50) * 2 ** 70, 3 ** 45 * 2 ** 65)
def test_fraction_agrees_with_the_constructor(n, d):
    """fraction writes Fraction's private slots, so a change to the
    fractions module shows here: the value must be a plain Fraction that
    behaves as Fraction(n, d) does."""
    f, want = fraction(n, d), Fraction(n, d)
    assert type(f) is Fraction
    assert (f.numerator, f.denominator) == (want.numerator, want.denominator)
    assert f == want and hash(f) == hash(want)
    assert (str(f), repr(f)) == (str(want), repr(want))
    assert f * Fraction(-2, 3) + 1 == want * Fraction(-2, 3) + 1
    back = pickle.loads(pickle.dumps(f))
    assert type(back) is Fraction
    assert (back.numerator, back.denominator) == (want.numerator, want.denominator)
    if math.gcd(n, d) == 1:  # coprime ints are kept, not copied
        assert f.numerator is n and f.denominator is d


def test_basic_arithmetic():
    a = IntMatrix(((3, 1), (1, 3)))
    i = IntMatrix.identity(2)
    assert a + i == IntMatrix(((4, 1), (1, 4)))
    assert a - i == IntMatrix(((2, 1), (1, 2)))
    assert a * i == a
    assert a * 2 == IntMatrix(((6, 2), (2, 6)))
    assert a ** 0 == i
    assert a ** 2 == IntMatrix(((10, 6), (6, 10)))
    assert a.apply((1, 0)) == (3, 1)
    assert a.transpose() == a
    assert a.det() == 8


def test_entries_are_taken_as_ints():
    """Entries go through operator.index, as BFGroup's k does: numpy ints
    and bools are stored as ints, and floats, Fractions and strings raise."""
    m = IntMatrix(((np.int64(2), 0), (True, np.int8(-1))))
    assert m.rows == ((2, 0), (1, -1)) and all(type(x) is int for r in m.rows for x in r)
    assert IntMatrix(((True, 0), (0, 1))) == IntMatrix.identity(2)
    for bad in (2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match="matrix entry must be an integer"):
            IntMatrix(((bad, 0), (0, 1)))


_PHI1 = TightMap(Endomorphism.from_strings(2, "aabAB", "BAbba"))  # A = I
_PHI2 = TightMap(Endomorphism.from_strings(2, "aaab", "bbba"))
_A2 = IntMatrix(((3, 1), (1, 3)))
_CP = cover_point(0, Fraction(1, 3), (0, 0))

# entry point -> (argument name, least value, a call passing x as that argument)
_COUNTS = {
    "minimal_loops": ("budget", 0, lambda x: minimal_loops(_PHI1, budget=x)),
    "rotation_set": ("budget", 0, lambda x: rotation_set(_PHI1, budget=x)),
    "periodic_points-budget": ("budget", 0, lambda x: _PHI2.periodic_points(2, budget=x)),
    "beta_breakpoints-budget": ("budget", 0, lambda x: beta_breakpoints(_PHI2, 2, budget=x)),
    "enumerate_fixed": ("budget", 0, lambda x: enumerate_fixed(_A2, 1, budget=x)),
    "BFGroup": ("k", 1, lambda x: BFGroup(_A2, x)),
    "periodic_points-k": ("k", 1, lambda x: _PHI2.periodic_points(x)),
    "beta_breakpoints-k": ("k", 0, lambda x: beta_breakpoints(_PHI2, x)),
    "tail_bound": ("k", 0, lambda x: tail_bound(_PHI2, x)),
    "lift_iter": ("k", 0, lambda x: _PHI2.lift_iter(_CP, x)),
    "eval_iter": ("k", 0, lambda x: _PHI2.eval_iter(VERTEX, x)),
    "shadow_pairs-depth": ("depth", 0, lambda x: shadow_pairs(_PHI2, depth=x)),
    "shadow_pairs-max_cells": ("max_cells", 0, lambda x: shadow_pairs(_PHI2, max_cells=x)),
    "beta_figure": ("window", 0, lambda x: beta_figure(beta_breakpoints(_PHI2, 1), window=x)),
    "cmd_beta": ("window", 0, lambda x: cmd_beta(argparse.Namespace(window=x))),
    "cmd_bf": ("k", 1, lambda x: cmd_bf(argparse.Namespace(k=x))),
    "IntMatrix.__pow__": ("k", 0, lambda x: _A2 ** x),
    "Endomorphism.power": ("k", 0, lambda x: _PHI2.endo.power(x)),
    "graph_point": ("edge", 0, lambda x: graph_point(x, Fraction(1, 3))),
    "cover_point": ("edge", 0, lambda x: cover_point(x, Fraction(1, 3), (0, 0))),
}


@pytest.mark.parametrize("name, least, call", list(_COUNTS.values()), ids=list(_COUNTS))
def test_counts_and_levels_take_one_rule(name, least, call):
    """Every count, level and index goes through intmat._at_least: a float
    or a string raises a TypeError naming the argument, where it used to
    run as a float, fail deep inside or be compared with an int, and a
    value below the least one raises a ValueError."""
    for bad in (1.5, "3"):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {bad!r}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


def test_shape_and_operand_errors():
    a = IntMatrix(((3, 1), (1, 3)))
    with pytest.raises(DimensionMismatch, match="matrix must be square"):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        a ** -1
    with pytest.raises(DimensionMismatch, match="vector length mismatch"):
        a.apply((1, 2, 3))
    with pytest.raises(TypeError, match="IntMatrix expected, got int"):
        a - 1
    with pytest.raises(DimensionMismatch, match="matrix dimensions differ"):
        a - IntMatrix.identity(3)


def test_det_known_values():
    assert IntMatrix(((1, 2), (3, 4))).det() == -2
    assert IntMatrix(((2, 0, 0), (0, 3, 0), (0, 0, 5))).det() == 30
    assert IntMatrix(((0, 0, 0),) * 3).det() == 0


@settings(max_examples=200, deadline=None)
@given(int_matrix(2))
def test_det_matches_numpy_2x2(a):
    expect = round(np.linalg.det(np.array(a.rows, dtype=float)))
    assert a.det() == expect


@settings(max_examples=200, deadline=None)
@given(int_matrix(3))
def test_det_matches_numpy_3x3(a):
    expect = round(np.linalg.det(np.array(a.rows, dtype=float)))
    assert a.det() == expect


def _check_snf(a):
    dec = snf(a)
    n = a.dim
    assert dec.U * a * dec.V == dec.D
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1
    diag = [dec.D.rows[i][i] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                assert dec.D.rows[i][j] == 0
    assert all(d >= 0 for d in diag)
    for i in range(n - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(a.det())


@settings(max_examples=200, deadline=None)
@given(int_matrix(2))
def test_snf_identities_2x2(a):
    _check_snf(a)


@settings(max_examples=200, deadline=None)
@given(int_matrix(3))
def test_snf_identities_3x3(a):
    _check_snf(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: int_matrix(n, -6, 6)))
@example(IntMatrix(((2, 4, 4), (-6, 6, 12), (10, -4, -16))))
def test_snf_diagonal_matches_sympy(a):
    want = smith_normal_form(sympy.Matrix(a.rows), domain=sympy.ZZ)
    assert sorted(snf(a).diagonal) == sorted(abs(int(want[i, i])) for i in range(a.dim))


def test_snf_deterministic(a2):
    m = a2 - IntMatrix.identity(2)
    d1, d2 = snf(m), snf(m)
    assert d1.U == d2.U and d1.V == d2.V and d1.D == d2.D
    assert [d1.D.rows[i][i] for i in range(2)] == [1, 3]
    assert d1.invariant_factors == (3,)


def test_rat_inverse():
    a = IntMatrix(((3, 1), (1, 3)))
    inv, den = rat_inverse(a)
    assert inv * a == den * IntMatrix.identity(2)
    assert Fraction(inv.rows[0][0], den) == Fraction(3, 8)
    with pytest.raises(SingularMatrix):
        rat_inverse(IntMatrix(((1, 1), (1, 1))))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: int_matrix(n, -5, 5)))
@example(IntMatrix(((1, 2, 3), (2, 4, 6), (0, 1, 5))))  # singular
@example(IntMatrix(((2, 0), (0, -6))))  # negative determinant, den = 6
def test_char_poly_and_inverse_match_sympy(a):
    s = sympy.Matrix(a.rows)
    assert list(char_poly(a)) == s.charpoly().all_coeffs()
    if s.det() == 0:
        with pytest.raises(SingularMatrix):
            rat_inverse(a)
        return
    inv, den = rat_inverse(a)
    assert den > 0
    assert a * inv == den * IntMatrix.identity(a.dim)
    assert den == math.lcm(*(x.q for x in s.inv()))


def _low_rank(n):
    """An n x r times r x n product, r < n: singular by construction."""
    return st.integers(0, n - 1).flatmap(lambda r: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=r, max_size=r),
    )).map(lambda ab: IntMatrix(tuple(tuple(sum(x * y for x, y in zip(row, col))
                                            for col in zip(*ab[1])) if ab[1] else (0,) * n
                                      for row in ab[0])))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.one_of(int_matrix(n), _low_rank(n))))
@example(IntMatrix(((0, 0, 0),) * 3))
@example(IntMatrix(((0, 2, 4), (0, 1, 2), (0, 0, 0))))  # first column has no pivot
def test_det_inverse_kernel_match_sympy(a):
    """det, rat_inverse and kernel share one elimination; check all three
    against sympy on full-rank and rank-deficient matrices."""
    s = sympy.Matrix(a.rows)
    assert a.det() == s.det()
    if s.det() == 0:
        with pytest.raises(SingularMatrix):
            rat_inverse(a)
    else:
        inv, den = rat_inverse(a)
        assert sympy.Matrix(inv.rows) / den == s.inv()
        assert den == math.lcm(*(x.q for x in s.inv()))
    basis = kernel(a)
    null = s.nullspace()
    assert len(basis) == len(null)
    for v in basis:
        assert any(v) and a.apply(v) == (0,) * a.dim
        assert math.gcd(*v) == 1 and next(x for x in v if x) > 0
    if basis:
        k = sympy.Matrix([list(v) for v in basis]).T
        assert k.rank() == len(null)
        assert k.row_join(sympy.Matrix.hstack(*null)).rank() == len(null)


_FOLD = IntMatrix(((2, 0), (0, 3)))  # divisibility fold, then a negative pivot: D = diag(1, 6)
_NEGATIVE_1X1 = IntMatrix(((-4,),))
_RANK_ONE = IntMatrix(((2, 4), (-1, -2)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.one_of(int_matrix(n), _low_rank(n))))
@example(IntMatrix(((0, 0, 0),) * 3))
@example(IntMatrix(((2, 4, 4), (-6, 6, 12), (10, -4, -16))))
@example(IntMatrix(((0, 0, 3), (0, 5, 0), (7, 0, 0))))  # swaps before any reduction
@example(_FOLD)
@example(_NEGATIVE_1X1)
@example(_RANK_ONE)
def test_snf_transforms_are_unimodular(a):
    """U and V have determinant +-1 by sympy and an integer Bareiss inverse,
    and U M V = D, on full-rank and singular matrices."""
    d = snf(a)
    assert d.U * a * d.V == d.D
    for t in (d.U, d.V):
        assert abs(sympy.Matrix(t.rows).det()) == 1
        inv, den = rat_inverse(t)
        assert den == 1
        assert t * inv == IntMatrix.identity(a.dim)


@pytest.mark.parametrize("a", [IntMatrix(((2, 1), (1, 1))) ** 2 - IntMatrix.identity(2),
                               IntMatrix(((1, 2), (2, 4)))])
def test_snf_certificate_reads_the_determinant(monkeypatch, a):
    """snf's checks rest on IntMatrix.det: of M when it is nonzero, of U and
    V when det M = 0. A determinant off by a factor 2 is caught."""
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda m: 2 * det(m))
    with pytest.raises(RuntimeError, match="SNF internal check failed"):
        snf(a)
    monkeypatch.undo()
    d = snf(a)
    assert d.U * a * d.V == d.D


def _snf_full_scan(a):
    """(U, D, V) by snf's elimination with the pivot found by a scan of the
    whole remaining submatrix for the least (|entry|, row, col)."""
    n = a.dim
    w = [list(r) for r in a.rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):
        w[i] = [x - q * y for x, y in zip(w[i], w[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for r in w + v:
            r[i] -= q * r[j]

    for t in range(n):
        while True:
            keys = [(abs(w[i][j]), i, j) for i in range(t, n) for j in range(t, n) if w[i][j]]
            if not keys:
                break
            _, pi, pj = min(keys)
            w[t], w[pi], u[t], u[pi] = w[pi], w[t], u[pi], u[t]
            for r in w + v:
                r[t], r[pj] = r[pj], r[t]
            if w[t][t] < 0:
                w[t], u[t] = [-x for x in w[t]], [-x for x in u[t]]
            p = w[t][t]
            for i in range(t + 1, n):
                row_sub(i, t, w[i][t] // p)
            for j in range(t + 1, n):
                col_sub(j, t, w[t][j] // p)
            if any(w[i][t] for i in range(t + 1, n)) or any(w[t][j] for j in range(t + 1, n)):
                continue
            viol = next((i for i in range(t + 1, n) for j in range(t + 1, n) if w[i][j] % p), None)
            if viol is None:
                break
            row_sub(t, viol, -1)
    for t in range(n):
        if w[t][t] < 0:
            w[t], u[t] = [-x for x in w[t]], [-x for x in u[t]]
    return tuple(IntMatrix(tuple(map(tuple, x))) for x in (u, w, v))


def test_snf_pivot_search_matches_the_full_scan():
    """The early-stopping pivot search picks the full scan's pivot, so U, D
    and V are the same, on seeded random matrices of dimension 1-5 with
    small entries (many units), wide entries (few) and low rank."""
    rng = random.Random(20261018)
    cases = [_FOLD, _NEGATIVE_1X1, _RANK_ONE]
    for trial in range(600):
        n = rng.randint(1, 5)
        lo = (1, 3, 40)[trial % 3]
        rows = [[rng.randint(-lo, lo) for _ in range(n)] for _ in range(n)]
        if trial % 5 == 0 and n > 1:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1 % n])]
        cases.append(IntMatrix(tuple(map(tuple, rows))))
    for a in cases:
        d = snf(a)
        U, D, V = _snf_full_scan(a)
        assert (d.U, d.D, d.V) == (U, D, V)
