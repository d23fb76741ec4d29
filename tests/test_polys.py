from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgedyn import IntMatrix, char_poly, has_root_of_unity_factor
from wedgedyn.polys import (
    all_roots_outside_closed_disk,
    cauchy_bound,
    count_real_roots,
    cyclotomic,
    deflate_root,
    divmod_monic,
    evaluate,
    isolate_real_roots,
    mul,
    schur_all_roots_in_open_disk,
    sturm_sequence,
)


def test_char_poly_known():
    assert char_poly(IntMatrix(((3, 1), (1, 3)))) == (1, -6, 8)
    assert char_poly(IntMatrix(((6, 1), (1, 6)))) == (1, -12, 35)
    assert char_poly(IntMatrix(((2, 1), (1, 1)))) == (1, -3, 1)
    assert char_poly(IntMatrix.identity(3)) == (1, -3, 3, -1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_char_poly_matches_numpy(rows):
    a = IntMatrix(tuple(tuple(r) for r in rows))
    ours = char_poly(a)
    theirs = np.poly(np.array(rows, dtype=float))
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        assert abs(x - y) < 1e-6


def test_cyclotomic_first_twelve():
    known = {
        1: (1, -1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        8: (1, 0, 0, 0, 1),
        12: (1, 0, -1, 0, 1),
    }
    for m, coeffs in known.items():
        assert cyclotomic(m) == coeffs


def test_cyclotomic_product_is_x_n_minus_1():
    for n in (1, 2, 3, 4, 6, 12):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = mul(prod, cyclotomic(d))
        want = (1,) + (0,) * (n - 1) + (-1,)
        assert prod == want


def test_root_of_unity_detection():
    assert has_root_of_unity_factor(char_poly(IntMatrix(((1, 1), (0, 1)))))  # eigenvalue 1
    assert has_root_of_unity_factor(char_poly(IntMatrix(((0, -1), (1, 0)))))  # +-i
    assert has_root_of_unity_factor((1, 0, 0, -1))  # x^3 - 1
    assert not has_root_of_unity_factor(char_poly(IntMatrix(((3, 1), (1, 3)))))
    assert not has_root_of_unity_factor(char_poly(IntMatrix(((2, 1), (1, 1)))))


def _det_power_minus_identity(rows, m):
    """det(A^m - I) for a 2x2 integer matrix, on plain ints."""
    (a, b), (c, d) = rows
    p, q, r, s = 1, 0, 0, 1
    for _ in range(m):
        p, q, r, s = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return (p - 1) * (s - 1) - q * r


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                min_size=2, max_size=2))
@example([[1, -2], [2, -3]])  # double, defective eigenvalue -1
def test_root_of_unity_matches_exact_oracle(rows):
    # a root of unity of degree <= 2 has order 1, 2, 3, 4 or 6, so some
    # A^m - I with m <= 12 is singular exactly when A has one
    a = IntMatrix(tuple(tuple(r) for r in rows))
    brute = any(_det_power_minus_identity(rows, m) == 0 for m in range(1, 13))
    assert has_root_of_unity_factor(char_poly(a)) == brute


def test_sturm_and_isolation():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    p = (1, -6, 11, -6)
    seq = sturm_sequence(p)
    assert count_real_roots(seq, Fraction(0), Fraction(10)) == 3
    assert count_real_roots(seq, Fraction(3, 2), Fraction(5, 2)) == 1
    roots = isolate_real_roots(p)
    assert len(roots) == 3
    for (lo, hi), want in zip(roots, (1, 2, 3)):
        assert lo <= want <= hi
        assert hi - lo <= Fraction(1, 10 ** 12)
    assert seq[0] == p


def test_divmod_monic_over_z_and_q():
    assert divmod_monic((1, 0, -1), (1, 1)) == ((1, -1), ())
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert divmod_monic((half, 0, half), (1, third)) == ((half, -Fraction(1, 6)), (Fraction(5, 9),))
    with pytest.raises(ValueError):
        divmod_monic((1, 0, -1), (2, 1))
    with pytest.raises(ValueError):
        divmod_monic((1, 0, -1), (-1, 1))


def _sympy_real_root_count(coeffs):
    return sympy.Poly(coeffs, sympy.Symbol("x")).count_roots()


def test_isolation_past_a_negative_led_sturm_divisor():
    p = (1, 3, 1, 4, 3)
    # some member of the chain that divides a nonconstant remainder is led by -1
    assert any(s[0] < 0 for s in sturm_sequence(p)[1:-1])
    roots = isolate_real_roots(p)
    assert len(roots) == _sympy_real_root_count(p) == 2
    for lo, hi in roots:
        assert evaluate(p, lo) * evaluate(p, hi) < 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=4, max_size=6))
def test_real_root_count_matches_sympy(coeffs):
    assume(coeffs[0] != 0)
    assume(sympy.Poly(coeffs, sympy.Symbol("x")).is_sqf)
    want = _sympy_real_root_count(coeffs)
    # the Sturm count first: a wrong count would send the bisection astray
    b = cauchy_bound(coeffs)
    assert count_real_roots(sturm_sequence(coeffs), -b, b) == want
    assert len(isolate_real_roots(tuple(coeffs))) == want


def test_evaluate_and_deflate():
    p = (1, -6, 11, -6)
    assert evaluate(p, Fraction(1)) == 0
    q = deflate_root(p, 1)
    assert q == (1, -5, 6)
    assert cauchy_bound(p) >= 3


def _np_roots_max_abs(coeffs):
    return max(abs(r) for r in np.roots(np.array(coeffs, dtype=float)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=5))
def test_schur_matches_numpy(tail):
    coeffs = (1,) + tuple(tail)
    m = _np_roots_max_abs(coeffs)
    if abs(m - 1) < 1e-8:
        return  # boundary ties are out of scope for the strict test
    assert schur_all_roots_in_open_disk(coeffs) == (m < 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=5))
def test_outside_disk_matches_numpy(tail):
    coeffs = (1,) + tuple(tail)
    roots = np.roots(np.array(coeffs, dtype=float))
    if len(roots) == 0:
        return
    m = min(abs(r) for r in roots)
    if abs(m - 1) < 1e-8:
        return
    assert all_roots_outside_closed_disk(coeffs, Fraction(1)) == (m > 1)
