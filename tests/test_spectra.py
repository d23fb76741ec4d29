import contextlib
import math
import time
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wedgedyn import (AdaptedNormUnavailable, IntMatrix, NotExpanding, polys,
                      rational_sqrt_upper, spectra, spectral)
from wedgedyn.intmat import rat_inverse
from wedgedyn.spectra import Eigenvalue, _bisect_lambda, _squarefree_decomposition, norm_data


def test_a2_exact_spectrum():
    sp = spectral(IntMatrix(((3, 1), (1, 3))))
    assert sp.charpoly == (1, -6, 8)
    vals = sorted(ev.re for ev in sp.eigenvalues)
    assert vals == [2, 4]
    assert all(ev.exact and ev.im == 0 for ev in sp.eigenvalues)
    assert sp.is_expanding
    assert not polys.has_root_of_unity_factor(sp.charpoly)
    assert sp.lambda_lower == 2
    nd = norm_data(sp, "adapted")
    assert nd is not None and nd.kind == "eigenbasis"
    assert nd.lam == 2
    # adapted norm: q2((1,1)) = |P^-1 (1,1)|^2, eigenvectors (1,1),(1,-1)
    assert nd.q2((1, 1))[0] > 0
    assert nd.q2((0, 0))[0] == 0


def test_a3_exact_spectrum():
    sp = spectral(IntMatrix(((6, 1), (1, 6))))
    assert sorted(ev.re for ev in sp.eigenvalues) == [5, 7]
    assert sp.is_expanding and sp.lambda_lower == 5


def test_irrational_pair_certified():
    sp = spectral(IntMatrix(((2, 1), (1, 1))))
    assert sp.charpoly == (1, -3, 1)
    evs = sorted(sp.eigenvalues, key=lambda e: e.re)
    assert len(evs) == 2
    # (3 +- sqrt(5))/2, certified to tight intervals
    assert abs(evs[0].re - 0.381966) < 1e-5
    assert abs(evs[1].re - 2.618034) < 1e-5
    assert all(ev.eps < Fraction(1, 10 ** 10) for ev in evs)
    assert not sp.is_expanding  # small eigenvalue inside the unit disk
    assert not polys.has_root_of_unity_factor(sp.charpoly)


def test_spectrum_pins_golden_pair():
    # values measured on the Fraction kernels; the integer Sturm and
    # Schur-Cohn kernels must reproduce them exactly
    sp = spectral(IntMatrix(((2, 1), (1, 1))))
    eps = Fraction(1, 35184372088832)
    assert sp.eigenvalues == (
        Eigenvalue(Fraction(13439234265111, 35184372088832), Fraction(0), eps, 1),
        Eigenvalue(Fraction(92113882001385, 35184372088832), Fraction(0), eps, 1),
    )
    assert sp.lambda_lower == Fraction(410132881, 1073741824)


def test_spectrum_pins_rank3_complex_pair():
    # one real root and one conjugate pair, the pair certified by the
    # Smith disks of its seeds on the grid of step 2^-61
    sp = spectral(IntMatrix(((1, 2, 0), (0, 1, 3), (4, 0, 1))))
    assert sp.charpoly == (1, -3, 3, -25)
    re = Fraction(-7966860000164825, 2 ** 54)
    im = Fraction(2812553736455595, 2 ** 50)
    eps = Fraction(323, 2 ** 60)
    assert sp.eigenvalues == (
        Eigenvalue(re, -im, eps, 1),
        Eigenvalue(re, im, eps, 1),
        Eigenvalue(Fraction(1093389305137129, 281474976710656), Fraction(0),
                   Fraction(13, 281474976710656), 1),
    )
    assert sp.is_expanding
    assert sp.lambda_lower == Fraction(43583523919, 17179869184)


def _bisect_lambda_oracle(p):
    """The full bisection of [0, Cauchy bound] that _bisect_lambda replaces:
    a disk test at every halving, about 35 per call."""
    if p[-1] == 0:
        return Fraction(0)
    lo, (hi, den) = 0, polys.cauchy_bound(p).as_integer_ratio()
    for _ in range(80):
        if (hi - lo) * 10 ** 9 < den:
            break
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        if polys.all_roots_outside_closed_disk(p, Fraction(mid, den)):
            lo = mid
        else:
            hi = mid
    return Fraction(lo, den)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


@st.composite
def _charpolys(draw):
    """A monic integer polynomial of degree 1-5: random coefficients, or a
    product of integer linear factors, so that every eigenvalue is exact;
    a factor x adds a root at 0 some of the time."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        p = (1, *draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    else:
        p = (1,)
        for r in draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)):
            p = _poly_mul(p, (1, -r))
    if n < 5 and draw(st.integers(0, 4)) == 0:
        p += (0,)
    return p


def _least_modulus2(p):
    """min |z|^2 over the roots of p, from sympy's 40-digit roots of its
    square-free part, exact as a Fraction."""
    roots = sympy.Poly(p, sympy.Symbol("x")).sqf_part().nroots(n=40, maxsteps=200)
    q = sympy.Rational(min(sympy.re(z) ** 2 + sympy.im(z) ** 2 for z in roots))
    return Fraction(int(q.p), int(q.q))


def _companion(p):
    """An integer matrix with characteristic polynomial p (monic)."""
    n = len(p) - 1
    return IntMatrix(tuple(tuple(-p[n - i] if j == n - 1 else int(i == j + 1) for j in range(n))
                           for i in range(n)))


@settings(max_examples=150, deadline=None)
@given(_charpolys())
@example((1, -3, 1))  # the golden pair, pinned below
@example((1, -3, 3, -25))  # the rank-3 complex pair, pinned below
@example((1, 0, -4))  # two roots of the least modulus, +-2
@example((1, -4, 4, 0))  # a root at 0 and a double root
def test_bisect_lambda_matches_full_bisection(p):
    """The same Fraction as the full bisection for no hint, the true hint
    and hints far off on either side, with at most three disk tests for
    the true hint and at most four more than the full bisection for any
    other; and through spectral, which passes its own hint."""
    def disk_tests(f, *args):
        with mock.patch.object(polys, "all_roots_outside_closed_disk",
                               wraps=polys.all_roots_outside_closed_disk) as disk:
            return f(*args), disk.call_count

    want, full = disk_tests(_bisect_lambda_oracle, p)
    rho2 = _least_modulus2(p)
    got, calls = disk_tests(_bisect_lambda, p, rho2)
    assert got == want and calls <= 3
    for hint in (None, rho2 / 10 ** 6, rho2 * 10 ** 6 + 10 ** 6, Fraction(0), Fraction(-7),
                 Fraction(10 ** 40)):
        got, calls = disk_tests(_bisect_lambda, p, hint)
        assert got == want and calls <= full + 4, hint
    sp = spectral(_companion(p))
    assert sp.charpoly == p
    if not all(e.exact for e in sp.eigenvalues):
        assert sp.lambda_lower == want


def _cluster(a):
    """(x^2 - 2ax + a^2 + 1)(x^2 - 2ax + a^2 + 4), with roots a +- i and
    a +- 2i: float seeds do not tell them apart once a is large."""
    return _poly_mul((1, -2 * a, a * a + 1), (1, -2 * a, a * a + 4))


def _assert_certified(sp):
    """Every eps is a Fraction; the exact eigenvalues are the integer roots;
    the non-real ones pair up with their conjugates, come in the number
    sympy counts, and each box re +- eps, im +- eps above the axis holds
    exactly one root of the square-free part (those below are its mirror
    images)."""
    def q(v):
        return sympy.Rational(v.numerator, v.denominator)

    x = sympy.Symbol("x")
    poly = sympy.Poly(sp.charpoly, x)
    square_free = poly.sqf_part()
    assert all(isinstance(e.eps, Fraction) for e in sp.eigenvalues)
    assert {e.re for e in sp.eigenvalues if e.exact} == set(sympy.roots(poly, filter="Z"))
    upper = [(e.re, e.im, e.eps, e.multiplicity) for e in sp.eigenvalues if e.im > 0]
    lower = [(e.re, -e.im, e.eps, e.multiplicity) for e in sp.eigenvalues if e.im < 0]
    assert sorted(lower) == sorted(upper)
    nreal = square_free.count_roots()
    assert len(sp.eigenvalues) - 2 * len(upper) == nreal
    assert 2 * len(upper) == square_free.degree() - nreal
    for re, im, eps, _ in upper:
        if eps:
            lo = q(re - eps) + sympy.I * q(im - eps)
            hi = q(re + eps) + sympy.I * q(im + eps)
            assert square_free.count_roots(lo, hi) == 1
        else:
            assert square_free.eval(q(re) + sympy.I * q(im)) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
@example(list(_cluster(10 ** 5)[1:]))  # the seeds fail; exact steps certify
@example(list(_cluster(10 ** 7)[1:]))
@example([1, -7, -15])  # -2 +- i lands on the grid with radius 0
@example([0, 0, 0, 2])  # x^4 + 2: two pairs, no real root
@example([0, 0, 0, 0, 0, 2 * 10 ** 6, -4000, 2])  # doubles the grid, see below
def test_every_eigenvalue_is_certified(tail):
    """spectral() of the companion matrix of a monic integer polynomial of
    degree 1-8 certifies every eigenvalue; lambda_lower comes from the
    disk tests unless every eigenvalue is an integer."""
    p = (1, *tail)
    sp = spectral(_companion(p))
    _assert_certified(sp)
    if not all(e.exact for e in sp.eigenvalues):
        assert sp.lambda_lower == _bisect_lambda(p)


def test_a_close_pair_certifies_on_a_doubled_grid():
    """x^8 + 2 (1000 x - 1)^2 has pairs close to 1/1000: its first grid has
    s = 56 + 21 = 77 bits (the Cauchy bound rounds up to 2 * 10^6), and
    only after _conjugate_pairs doubles it does a radius fall below 2^-77."""
    p = (1, 0, 0, 0, 0, 0, 2 * 10 ** 6, -4000, 2)
    assert math.ceil(polys.cauchy_bound(p)).bit_length() == 21
    sp = spectral(_companion(p))
    assert any(e.im != 0 and 0 < e.eps < Fraction(1, 2 ** 77) for e in sp.eigenvalues)


def test_gaussian_integer_pair_is_not_exact():
    # eps = 0 for -2 +- i, but only an integer eigenvalue is exact, so
    # lambda_lower comes from the disk tests and there is no eigenbasis norm
    sp = spectral(IntMatrix(((2, 3, 2), (1, 0, -2), (1, 2, -3))))
    assert sp.charpoly == (1, 1, -7, -15)
    assert [(e.re, e.im, e.eps, e.exact) for e in sp.eigenvalues] == [
        (-2, -1, 0, False), (-2, 1, 0, False), (3, 0, 0, True)]
    assert sp.lambda_lower == Fraction(600239927, 268435456)
    with pytest.raises(AdaptedNormUnavailable):
        norm_data(sp)


@pytest.mark.parametrize("p", [(1, 0, 1), (1, 0, 0, 0, 2), (1, -3, 3, -25), (1, 1, -7, -15),
                               (1, -37, 78, 96, 31, -10, -15, 3, 14), _cluster(10 ** 5)])
def test_coincident_seeds_raise_nothing(p):
    """Seeds that all coincide are spread apart before the first exact
    step, so no Weierstrass correction divides by zero, and the exact
    steps certify the same spectrum."""
    want = spectral(_companion(p))
    with mock.patch.object(spectra, "_seeds", lambda q, s: [(0, 0)] * (len(q) - 1)):
        got = spectral(_companion(p))
    _assert_certified(got)
    assert len(got.eigenvalues) == len(want.eigenvalues)
    assert got.lambda_lower == want.lambda_lower


def test_coefficients_beyond_float_range_certify():
    """A coefficient beyond float range sends the seeds through the
    polynomial with its roots scaled down by a power of two, so
    x^2 + 10^400 certifies +-10^200 i and x^4 + 10^400 its four roots
    10^100 (+-1 +- i) / sqrt(2), each box holding the true root."""
    sp = spectral(IntMatrix(((0, -10 ** 200), (10 ** 200, 0))))
    _assert_certified(sp)
    assert [e.im > 0 for e in sp.eigenvalues] == [False, True]
    assert all(abs(e.re) <= e.eps < 1 and abs(abs(e.im) - 10 ** 200) <= e.eps
               for e in sp.eigenvalues)
    sp = spectral(_companion((1, 0, 0, 0, 10 ** 400)))
    _assert_certified(sp)
    assert sorted((e.re > 0, e.im > 0) for e in sp.eigenvalues) == [
        (False, False), (False, True), (True, False), (True, True)]
    for e in sp.eigenvalues:
        assert e.eps < 1
        # |re| and |im| are both 10^100 / sqrt(2), whose square is 10^200 / 2
        for c in (abs(e.re), abs(e.im)):
            assert (c - e.eps) ** 2 <= 10 ** 200 // 2 <= (c + e.eps) ** 2


def test_root_of_unity_matrix():
    sp = spectral(IntMatrix(((0, -1), (1, 0))))
    assert polys.has_root_of_unity_factor(sp.charpoly)
    sp = spectral(IntMatrix(((1, 1), (0, 1))))
    assert polys.has_root_of_unity_factor(sp.charpoly) and not sp.is_expanding


def test_complex_quartet_certified_expanding():
    # companion of x^4 + 2: all roots |x| = 2^(1/4) > 1, two complex pairs
    a = IntMatrix(((0, 0, 0, -2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    sp = spectral(a)
    assert sp.charpoly == (1, 0, 0, 0, 2)
    assert sp.is_expanding  # certified by the exact disk test
    assert len(sp.eigenvalues) == 4
    assert all(not ev.exact for ev in sp.eigenvalues)
    mod = 2 ** 0.25
    for ev in sp.eigenvalues:
        assert abs((ev.re ** 2 + ev.im ** 2) ** 0.5 - mod) < 1e-6
    assert Fraction(1) < sp.lambda_lower <= Fraction(119, 100)


def test_quartic_spectrum_past_a_negative_led_sturm_divisor():
    # the Sturm chain of this characteristic polynomial divides by a
    # remainder whose leading coefficient is -1
    sp = spectral(IntMatrix(((0, 1, 1, 2), (-2, 0, 3, -2), (2, -2, 3, 3), (0, 3, 0, -1))))
    assert len(sp.eigenvalues) == 4
    poly = sympy.Poly(sp.charpoly, sympy.Symbol("x"))
    assert sum(1 for ev in sp.eigenvalues if ev.im == 0) == poly.count_roots() == 2
    roots = sorted(poly.nroots(n=30), key=lambda z: (sympy.re(z), sympy.im(z)))
    for ev, root in zip(sp.eigenvalues, roots):
        assert abs(complex(ev.re, ev.im) - complex(root)) <= ev.eps + 1e-12


def test_lambda_lower_is_certified_bound():
    sp = spectral(IntMatrix(((3, 1), (1, 3))))
    assert sp.lambda_lower == 2
    sp = spectral(IntMatrix(((6, 1), (1, 6))))
    assert sp.lambda_lower == 5


def test_sup_norm_data():
    nd = norm_data(spectral(IntMatrix(((3, 1), (1, 3)))), "sup")
    assert nd.kind == "sup"
    assert nd.lam == 2  # 1 / |A^-1|_inf = 1/(1/2)
    with pytest.raises(NotExpanding):
        norm_data(spectral(IntMatrix(((1, 1), (0, 1)))), "sup")


@st.composite
def _eigenbasis_matrices(draw):
    """A = P D P^-1 with P a random unimodular matrix (a product of
    elementary integer shears) and integers |d_i| >= 2."""
    n = draw(st.integers(2, 4))
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            f = draw(st.integers(-2, 2))
            p[i] = [x + f * y for x, y in zip(p[i], p[j])]
    d = [draw(st.integers(2, 5)) * draw(st.sampled_from([1, -1])) for _ in range(n)]
    big_p = IntMatrix(tuple(map(tuple, p)))
    p_inv, den = rat_inverse(big_p)
    assert den == 1
    diag = IntMatrix(tuple(tuple(d[i] * (i == j) for j in range(n)) for i in range(n)))
    return big_p * diag * p_inv


@settings(max_examples=60, deadline=None)
@given(_eigenbasis_matrices(), st.data())
def test_norm_radius_bounds_the_sup_norm(a, data):
    """max |v_i|^2 <= radius^2 q2(v) in the eigenbasis norm, and in the sup
    norm whenever it certifies."""
    sp = spectral(a)
    norms = [norm_data(sp, "adapted")]
    assert norms[0].kind == "eigenbasis"
    with contextlib.suppress(NotExpanding):
        norms.append(norm_data(sp, "sup"))
    vec = st.lists(st.integers(-50, 50), min_size=a.dim, max_size=a.dim)
    for nd in norms:
        for v in data.draw(st.lists(vec, min_size=1, max_size=10)):
            num, den = nd.q2(v)
            assert max(map(abs, v)) ** 2 * den <= nd.radius ** 2 * num


def test_rational_sqrt_upper():
    assert rational_sqrt_upper(Fraction(9, 16)) == Fraction(3, 4)
    assert rational_sqrt_upper(Fraction(9, 49)) == Fraction(3, 7)
    assert rational_sqrt_upper(Fraction(4)) == 2
    assert rational_sqrt_upper(Fraction(0)) == 0
    c = rational_sqrt_upper(Fraction(2))
    assert c * c >= 2
    assert c - Fraction(14142135623730950, 10 ** 16) < Fraction(1, 10 ** 13)
    with pytest.raises(ValueError):
        rational_sqrt_upper(Fraction(-1))


# a factor of degree 1-3, primitive and led positive, with its power
_factor = st.tuples(
    st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(
        lambda f: f[0] > 0 and math.gcd(*f) == 1),
    st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_factor, min_size=1, max_size=4), st.sampled_from([1, -1, 2, -6]))
@example([([1, 0, -2], 2), ([2, 1], 3)], -1)
@example([([1, 1], 1), ([1, 1], 2), ([3, 0, 1], 1)], 2)
def test_squarefree_decomposition_matches_sympy(factors, unit):
    x = sympy.Symbol("x")
    poly = sympy.Poly(unit, x)
    for f, k in factors:
        poly *= sympy.Poly(f, x) ** k
    p = tuple(int(c) for c in poly.all_coeffs())
    _, want = poly.sqf_list()
    assert _squarefree_decomposition(p) == [(tuple(int(c) for c in f.all_coeffs()), k)
                                            for f, k in want]


@st.composite
def _small_matrices(draw):
    """A square matrix of dimension 1-4 with entries in [-6, 6]; upper
    triangular half the time, so integer and repeated eigenvalues are
    common."""
    n = draw(st.integers(1, 4))
    tri = draw(st.booleans())
    return IntMatrix(tuple(tuple(0 if tri and j < i else draw(st.integers(-6, 6))
                                 for j in range(n)) for i in range(n)))


@settings(max_examples=150, deadline=None)
@given(_small_matrices())
@example(IntMatrix(((2, 5, 1), (0, 2, -3), (0, 0, -1))))
@example(IntMatrix(((0, 1, 0), (0, 0, 0), (0, 0, 3))))
def test_exact_eigenvalues_are_the_integer_roots(a):
    """The exact eigenvalues are sympy's integer roots of the charpoly, with
    multiplicity, and every other certified real eigenvalue's interval holds
    exactly one root."""
    sp = spectral(a)
    x = sympy.Symbol("x")
    poly = sympy.Poly(sp.charpoly, x)
    exact = {int(e.re): e.multiplicity for e in sp.eigenvalues if e.exact}
    assert all(e.re.denominator == 1 and e.im == 0 for e in sp.eigenvalues if e.exact)
    assert len(exact) == sum(e.exact for e in sp.eigenvalues)
    assert exact == {int(r): k for r, k in sympy.roots(poly, filter="Z").items()}
    square_free = poly.sqf_part()
    for e in sp.eigenvalues:
        if e.im == 0 and e.eps:
            lo, hi = e.re - e.eps, e.re + e.eps
            assert square_free.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                           sympy.Rational(hi.numerator, hi.denominator)) == 1


def test_large_integer_eigenvalues_come_out_of_the_isolation():
    """A constant term of about 4.8e15 costs no divisor search."""
    a = IntMatrix(((40000001, 2, 0), (2, 40000001, 0), (0, 0, 3)))
    start = time.perf_counter()
    sp = spectral(a)
    elapsed = time.perf_counter() - start
    assert [(e.re, e.eps, e.multiplicity) for e in sp.eigenvalues] == [
        (3, 0, 1), (39999999, 0, 1), (40000003, 0, 1)]
    assert sp.is_expanding and sp.lambda_lower == 3
    assert elapsed < 1
