import doctest
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wedgedyn.polys
from wedgedyn import IntMatrix, char_poly, has_root_of_unity_factor
from wedgedyn.polys import (
    _unity_orders,
    all_roots_outside_closed_disk,
    cauchy_bound,
    cyclotomic,
    evaluate,
    isolate_real_roots,
    pseudo_divmod,
    schur_all_roots_in_open_disk,
    sign_changes,
    sturm_sequence,
    trim,
)


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def add(p, q):
    n = max(len(p), len(q))
    p, q = (0,) * (n - len(p)) + tuple(p), (0,) * (n - len(q)) + tuple(q)
    return trim(tuple(a + b for a, b in zip(p, q)))


def count_real_roots(seq, lo, hi):
    """Distinct real roots in (lo, hi], from the Sturm counts at both ends."""
    return sign_changes(seq, *lo.as_integer_ratio()) - sign_changes(seq, *hi.as_integer_ratio())


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


def square_rows(lo, hi, min_n=1, max_n=6):
    return st.integers(min_n, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(square_rows(-5, 5))
@example([[7]])
@example([[0] * 6] * 6)
def test_char_poly_matches_sympy_charpoly(rows):
    want = tuple(int(c) for c in sympy.Matrix(rows).charpoly().all_coeffs())
    assert char_poly(IntMatrix(tuple(map(tuple, rows)))) == want


def test_unity_orders_are_the_orders_of_low_degree_roots_of_unity():
    for b in range(8):
        assert _unity_orders(b) == tuple(m for m in range(1, 400) if sympy.totient(m) <= b)


@settings(max_examples=150, deadline=None)
@given(square_rows(-2, 2, max_n=4))
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # a 3-cycle: eigenvalues of order 3
@example([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # x^4 + 1: order 8
@example([[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, -1], [0, 0, 1, 1]])  # Phi_10: order 10
@example([[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]])  # Phi_12: order 12
def test_root_of_unity_matches_singular_power_over_admissible_orders(rows):
    """A has an eigenvalue of order m exactly when A^m - I is singular, and
    phi(m) <= deg forces m into _unity_orders(deg)."""
    n = len(rows)
    s = sympy.Matrix(rows)
    brute = any((s ** m - sympy.eye(n)).det() == 0 for m in _unity_orders(n))
    assert has_root_of_unity_factor(char_poly(IntMatrix(tuple(map(tuple, rows))))) == brute


def _unfiltered_scan(p):
    """The cyclotomic scan with no value test: one division per order."""
    return any(not pseudo_divmod(p, cyclotomic(m))[1] for m in _unity_orders(max(len(p) - 1, 0)))


def _sympy_has_cyclotomic_factor(p):
    """Some irreducible factor of p over Q is sympy's Phi_m."""
    x = sympy.Symbol("x")
    for f, _ in sympy.Poly(p, x).factor_list()[1]:
        d = f.degree()
        if any(sympy.totient(m) == d and f == sympy.Poly(sympy.cyclotomic_poly(m, x), x)
               for m in range(1, 4 * d * d + 10)):
            return True
    return False


def _assert_root_of_unity_verdict(p):
    want = _sympy_has_cyclotomic_factor(p)
    assert _unfiltered_scan(p) == want
    assert has_root_of_unity_factor(p) == want


# monic integer cofactors of degree 0-3: among them x - 2 and x - 3, so the
# product has p(2) = 0 or p(3) = 0 and the value test sees 0
_COFACTORS = ((1,), (1, -2), (1, -3), (1, 0, -2), (1, -5, 6), (1, 1, 0, 7), (1, -2, 0, -3))


@pytest.mark.parametrize("m", _unity_orders(4))
def test_root_of_unity_prefilter_keeps_every_cyclotomic_product(m):
    for q in _COFACTORS:
        p = mul(cyclotomic(m), q)
        assert has_root_of_unity_factor(p)
        _assert_root_of_unity_verdict(p)


_monic = st.lists(st.integers(-6, 6), min_size=1, max_size=6).map(lambda c: (1, *c))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _monic,
    st.tuples(st.sampled_from(_unity_orders(4)), _monic).map(lambda t: mul(cyclotomic(t[0]), t[1])),
    st.tuples(st.sampled_from([2, 3]), _monic).map(lambda t: mul((1, -t[0]), t[1]))))
@example((1, -2))  # p(2) = 0, no cyclotomic factor
@example((1, -5, 6))  # p(2) = p(3) = 0
@example((1, -1, -2))  # (x - 2)(x + 1): p(2) = 0 and Phi_2 divides
def test_root_of_unity_prefilter_matches_unfiltered_scan_and_sympy(p):
    _assert_root_of_unity_verdict(p)


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


def test_module_doctests():
    result = doctest.testmod(wedgedyn.polys)
    assert result.attempted > 0 and result.failed == 0


def test_pseudo_divmod_scaled_identity():
    # a monic divisor gives plain division
    assert pseudo_divmod((1, 0, -1), (1, 1)) == ((1, -1), ())
    # s = |lc(d)| = 2, e = 2: 4(x^2 - 1) = (2x - 1)(2x + 1) - 3
    assert pseudo_divmod((1, 0, -1), (2, 1)) == ((2, -1), (-3,))
    # lc(d) = -1 needs no scaling: x^2 - 1 = (-x - 1)(-x + 1)
    assert pseudo_divmod((1, 0, -1), (-1, 1)) == ((-1, -1), ())
    # a dividend of lower degree is its own remainder
    assert pseudo_divmod((3, 1), (2, 0, 1)) == ((), (3, 1))
    with pytest.raises(ZeroDivisionError):
        pseudo_divmod((1, 0), (0,))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(lambda d: d[0] != 0))
@example([1, 0, 1], [-2, 1])
@example([5, -3, 0, 7, 2], [-3, 0, 2])
def test_pseudo_divmod_matches_identity_and_sympy(p, d):
    q, r = pseudo_divmod(p, d)
    e = max(len(trim(p)) - len(d) + 1, 0)
    lhs = tuple(abs(d[0]) ** e * c for c in trim(p))
    assert add(mul(q, d), r) == lhs
    assert len(r) < len(d)
    # sympy's pdiv scales by lc(d)^e, so it differs by the sign of lc(d)^e
    x = sympy.Symbol("x")
    if e:
        sq, sr = sympy.pdiv(sympy.Poly(p, x), sympy.Poly(d, x))
        sign = -1 if d[0] < 0 and e % 2 else 1
        assert tuple(sign * int(c) for c in sq.all_coeffs()) == q
        assert trim(tuple(sign * int(c) for c in sr.all_coeffs())) == r


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


def test_evaluate_and_root_deflation():
    p = (1, -6, 11, -6)
    assert evaluate(p, Fraction(1)) == 0
    assert pseudo_divmod(p, (1, -1)) == ((1, -5, 6), ())
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


def test_outside_disk_at_a_negative_or_zero_radius():
    # every |z| >= 0 exceeds a negative radius, a root at 0 included
    assert all_roots_outside_closed_disk((1, 0), Fraction(-1))
    assert all_roots_outside_closed_disk((1, -6, 8), Fraction(-5, 2))
    assert not all_roots_outside_closed_disk((1, 0), Fraction(0))
    assert all_roots_outside_closed_disk((1, 1), Fraction(0))


# A Fraction oracle: the classical Sturm chain (monic divisors, members
# scaled by |leading coefficient|), bisection on Sturm counts at both ends,
# and Schur-Cohn over Q. The library runs all three on ints; every interval
# endpoint and every verdict must agree exactly.

def _q_eval(p, x):
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _q_trim(p):
    p = list(p)
    while p and p[0] == 0:
        p.pop(0)
    return p


def _q_rem(a, d):
    """Remainder of a by the nonzero d over Q."""
    a = [Fraction(c) for c in a]
    d = [Fraction(c) / d[0] for c in d]
    while len(a) >= len(d):
        c = a[0]
        a = [x - c * y for x, y in zip(a, d)][1:] + a[len(d):]
    return _q_trim(a)


def _q_sturm(p):
    lead = abs(Fraction(p[0]))
    seq = [[Fraction(c) / Fraction(p[0]) for c in p]]
    n = len(p) - 1
    seq.append([c * (n - i) / n for i, c in enumerate(seq[0][:-1])])
    while seq[-1]:
        rem = _q_rem(seq[-2], seq[-1])
        if not rem:
            break
        lead = abs(rem[0])
        seq.append([-c / lead for c in rem])
    return [s for s in seq if s]


def _q_count(seq, lo, hi):
    def changes(x):
        signs = [v > 0 for v in (_q_eval(s, x) for s in seq) if v != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return changes(lo) - changes(hi)


def _q_isolate(p, width=Fraction(1, 10 ** 13)):
    seq = _q_sturm(p)
    b = 1 + max(abs(Fraction(c)) for c in p[1:]) / abs(Fraction(p[0]))
    stack = [(-b, b, _q_count(seq, -b, b))]
    found = []
    while stack:
        a, c, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            while c - a > width:
                mid = (a + c) / 2
                if _q_eval(p, mid) == 0:
                    a, c = mid - width / 2, mid + width / 2
                    break
                if _q_count(seq, a, mid) == 1:
                    c = mid
                else:
                    a = mid
            found.append((a, c))
            continue
        mid = (a + c) / 2
        while _q_eval(p, mid) == 0:
            mid = (a + mid) / 2
        cl = _q_count(seq, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, c, cnt - cl))
    return sorted(found)


def _q_outside_disk(p, radius):
    n = len(p) - 1
    q = _q_trim([Fraction(c) * radius ** (n - i) for i, c in enumerate(p)][::-1])
    if len(q) <= n:
        return False  # root at 0
    while len(q) > 1:
        a0, an = q[0], q[-1]
        if abs(an) >= abs(a0):
            return False
        q = _q_trim([a0 * q[k] - an * q[len(q) - 1 - k] for k in range(len(q) - 1)]) or [1]
    return True


_sqf_polys = st.lists(st.integers(-9, 9), min_size=3, max_size=7).filter(
    lambda c: c[0] != 0 and sympy.Poly(c, sympy.Symbol("x")).is_sqf)


@settings(max_examples=200, deadline=None)
@given(_sqf_polys)
@example([1, 0, -2])
@example([-3, 1, 4, -1, -5, 9, 2])
@example([2, -3, 0, 0, 1])
def test_isolation_matches_fraction_oracle(coeffs):
    assert isolate_real_roots(tuple(coeffs)) == _q_isolate(coeffs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7).filter(lambda c: c[0] != 0),
       st.integers(1, 60), st.sampled_from([3, 5, 6, 7, 9, 10, 12, 15, 21]))
@example([1, 0, -4], 2, 1)  # roots +-2 on the circle |z| = 2: not outside
@example([9, 0, -4], 2, 3)  # roots +-2/3 on the circle |z| = 2/3
def test_outside_disk_matches_fraction_oracle(coeffs, num, den):
    radius = Fraction(num, den)
    assert all_roots_outside_closed_disk(tuple(coeffs), radius) == _q_outside_disk(coeffs, radius)
