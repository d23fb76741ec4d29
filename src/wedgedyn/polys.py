"""Dense univariate polynomials over Z.

Coefficient lists are descending (leading coefficient first). Used for
characteristic polynomials, cyclotomic divisibility, Sturm root isolation
and the Schur-Cohn unit-circle test. No floating point anywhere. Sturm
isolation and Schur-Cohn run on Python ints: chain members are primitive
integer polynomials, and a rational point u/v is evaluated homogeneously,
so only returned interval endpoints are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from operator import mul

from .intmat import IntMatrix, primitive_int


def trim(p):
    """Drop leading zeros; the zero polynomial becomes ()."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return tuple(p[i:])


def degree(p):
    p = trim(p)
    return len(p) - 1 if p else -1


def evaluate(p, x):
    """p(x), exact: an int for an int x, a Fraction for a Fraction x."""
    acc = 0
    for c in p:
        acc = acc * x + c
    return acc


def pseudo_divmod(p, d):
    """(q, r) with s^e·p = q·d + r and deg r < deg d, on ints: s = |lc(d)|
    and e = deg p - deg d + 1 (r = p and q = () when deg p < deg d).

    Each step scales by s > 0 before it cancels the leading term, so every
    sign is kept; for a monic d it is plain division.

    >>> pseudo_divmod((1, 0, 1), (-2, 1))  # 4(x^2 + 1) = (-2x - 1)(-2x + 1) + 5
    ((-2, -1), (5,))
    """
    d = trim(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    s, neg = abs(d[0]), d[0] < 0
    p = list(trim(p))
    if len(p) < len(d):
        return (), tuple(p)
    quot = []
    for i in range(len(p) - len(d) + 1):
        f = -p[i] if neg else p[i]
        if s != 1:
            quot = [s * c for c in quot]
            p[i + 1:] = [s * c for c in p[i + 1:]]
        quot.append(f)
        if f:
            for j in range(1, len(d)):
                p[i + j] -= f * d[j]
    return trim(quot), trim(p[len(p) - len(d) + 1:])


def derivative(p):
    p = trim(p)
    n = len(p) - 1
    return trim(tuple(c * (n - i) for i, c in enumerate(p[:-1])))


def _primitive(p):
    """Divide by the positive content: keeps every sign, tames growth."""
    g = gcd(*p)
    return tuple(c // g for c in p) if g > 1 else tuple(p)


def gcd_primitive(p, q):
    """The gcd over Q of integer polynomials, as a primitive integer
    polynomial led positive: Euclid on primitive pseudo-remainders."""
    a, b = primitive_int(trim(p)), primitive_int(trim(q))
    while b:
        a, b = b, primitive_int(pseudo_divmod(a, b)[1])
    return a


def char_poly(a: IntMatrix):
    """Characteristic polynomial det(xI - A), monic integer, descending.

    Faddeev-LeVerrier in integers on plain rows: M_1 = A, c_k = -tr(M_k) / k
    and M_{k+1} = A (M_k + c_k I); every division is exact.
    """
    rows = a.rows
    n = len(rows)
    coeffs = [1]
    mk = rows
    for k in range(1, n + 1):
        ck, rem = divmod(-sum(mk[i][i] for i in range(n)), k)
        if rem:
            raise RuntimeError("char_poly coefficients must be integers")
        coeffs.append(ck)
        if k < n:
            shifted = [list(r) for r in mk]
            for i in range(n):
                shifted[i][i] += ck
            mk = [[sum(map(mul, r, c)) for c in zip(*shifted)] for r in rows]
    return tuple(coeffs)


def euler_phi(m: int) -> int:
    out = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            out -= out // p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


@cache
def cyclotomic(m: int):
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    num = (1,) + (0,) * (m - 1) + (-1,)
    for d in range(1, m):
        if m % d == 0:
            num, rem = pseudo_divmod(num, cyclotomic(d))
            assert rem == ()
    return num


@cache
def _unity_orders(b: int) -> tuple:
    """The m with euler_phi(m) <= b, the orders of the roots of unity of
    degree <= b over Q, for b >= 0. phi(m) >= sqrt(m/2), so m <= 2*b^2 + 6
    covers them all. Built once per b."""
    return tuple(m for m in range(1, 2 * b * b + 7) if euler_phi(m) <= b)


@cache
def _cyclotomic_values(m: int) -> tuple:
    """(Phi_m, Phi_m(2), Phi_m(3)), built once per m; both values are > 0."""
    c = cyclotomic(m)
    return c, evaluate(c, 2), evaluate(c, 3)


def has_root_of_unity_factor(p) -> bool:
    """True when some cyclotomic polynomial divides p (p monic integer).

    Only Phi_m with euler_phi(m) <= deg p can divide p; _unity_orders lists
    those m. Phi_m is monic, so Phi_m | p forces Phi_m(x) | p(x) at every
    integer x: only the Phi_m that pass this test at x = 2 and x = 3 are
    divided into p.
    """
    p2, p3 = evaluate(p, 2), evaluate(p, 3)
    return any(not (p2 % c2 or p3 % c3 or pseudo_divmod(p, c)[1])
               for c, c2, c3 in map(_cyclotomic_values, _unity_orders(max(degree(p), 0))))


def _heval(p, u, v):
    """v^deg(p) * p(u/v) on ints: for v > 0 it has the sign of p(u/v)."""
    acc, vp = 0, 1
    for c in p:
        acc = acc * u + c * vp
        vp *= v
    return acc


def sturm_sequence(p):
    """The Sturm chain of an integer polynomial p. Each member is primitive
    and a positive multiple of the classical member over Q, so it has the
    same signs; the first is p led positive."""
    seq = [primitive_int(trim(p))]
    seq.append(_primitive(derivative(seq[0])))
    while seq[-1]:
        rem = pseudo_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append(_primitive(tuple(-c for c in rem)))
    return [s for s in seq if s]


def sign_changes(seq, u, v):
    """Sign changes along seq at x = u/v (ints, v > 0), zeros skipped."""
    out, last = 0, 0
    for s in seq:
        val = _heval(s, u, v)
        if val:
            if last and (val > 0) != (last > 0):
                out += 1
            last = val
    return out


def cauchy_bound(p):
    """All roots have modulus < this bound (p nonzero)."""
    p = trim(p)
    lead = abs(Fraction(p[0]))
    mx = max((abs(Fraction(c)) for c in p[1:]), default=Fraction(0))
    return 1 + mx / lead


_WIDTH = Fraction(1, 10 ** 13)


def isolate_real_roots(p):
    """Disjoint rational intervals (lo, hi] of width at most _WIDTH, one
    distinct real root each.

    p must be a square-free integer polynomial. Returns a list sorted by
    position. Each interval is held as integer numerators a < c over one
    denominator den > 0, so every sign test runs on ints.
    """
    p = trim(p)
    if degree(p) <= 0:
        return []
    seq = sturm_sequence(p)
    p = seq[0]  # a positive multiple of p: the same signs
    bn, den = cauchy_bound(p).as_integer_ratio()
    wn, wd = _WIDTH.as_integer_ratio()
    # endpoints of the Cauchy bound are never roots; an entry carries the
    # sign changes at both of its endpoints
    stack = [(-bn, bn, den, sign_changes(seq, -bn, den), sign_changes(seq, bn, den))]
    found = []
    while stack:
        a, c, den, va, vc = stack.pop()
        if va == vc:
            continue
        if va - vc == 1:
            # p is square-free and p(a) != 0: the one root lies in (a, mid]
            # exactly when p changes sign there
            sa = _heval(p, a, den) > 0
            while (c - a) * wd > wn * den:
                a, c, den = 2 * a, 2 * c, 2 * den
                mid = (a + c) // 2
                pm = _heval(p, mid, den)
                if pm == 0:
                    # land exactly on the root; shrink symmetrically around it
                    m = Fraction(mid, den)
                    found.append((m - _WIDTH / 2, m + _WIDTH / 2))
                    break
                if (pm > 0) != sa:
                    c = mid
                else:
                    a = mid
            else:
                found.append((Fraction(a, den), Fraction(c, den)))
            continue
        a, c, den = 2 * a, 2 * c, 2 * den
        mid = (a + c) // 2
        while _heval(p, mid, den) == 0:
            a, mid, c, den = 2 * a, a + mid, 2 * c, 2 * den
        vm = sign_changes(seq, mid, den)
        stack.append((a, mid, den, va, vm))
        stack.append((mid, c, den, vm, vc))
    return sorted(found)


def schur_all_roots_in_open_disk(p) -> bool:
    """True iff every root of the integer polynomial p lies strictly inside
    the unit circle.

    Classical Schur-Cohn reduction on ints. Each step is divided by its
    positive content, which changes no |a_n| >= |a_0| test. The reduction
    keeps a positive leading coefficient, so it never degenerates once the
    strict |constant| < |leading| gate passes.
    """
    p = trim(p)
    if not p:
        raise ValueError("zero polynomial")
    while len(p) > 1:
        a0, an = p[0], p[-1]
        if abs(an) >= abs(a0):
            return False
        n = len(p) - 1
        p = _primitive(trim([a0 * p[k] - an * p[n - k] for k in range(n)])) or (1,)
    return True


def all_roots_outside_closed_disk(p, radius=Fraction(1)) -> bool:
    """True iff every root z of the integer polynomial p has |z| > radius
    (exact test)."""
    p = trim(p)
    if degree(p) <= 0 or radius < 0:
        return True
    if p[-1] == 0:
        return False  # root at 0
    if radius == 0:
        return True
    # for radius = u/v, v^n p(radius x) = sum c_i u^(n-i) v^i x^(n-i); its
    # reversal has the roots radius/z, inside the unit circle iff |z| > radius
    u, v = radius.as_integer_ratio()
    n = len(p) - 1
    return schur_all_roots_in_open_disk(tuple(c * u ** k * v ** (n - k)
                                              for k, c in enumerate(reversed(p))))
