"""Dense univariate polynomials over Z and Q.

Coefficient lists are descending (leading coefficient first). Used for
characteristic polynomials, cyclotomic divisibility, Sturm root isolation
and the Schur-Cohn unit-circle test. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import NotDivisible
from .intmat import IntMatrix


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
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def mul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def divmod_monic(p, d):
    """(quotient, remainder) of p by a monic divisor d.

    The coefficients may be integers or Fractions: over Z the result stays
    integral, over Q callers scale a divisor to be monic first (for example
    with monic_over_q), which leaves the remainder unchanged.
    """
    d = trim(d)
    if not d or d[0] != 1:
        raise ValueError("divisor must be monic")
    p = list(trim(p))
    if len(p) < len(d):
        return (), tuple(p)
    quot = []
    for i in range(len(p) - len(d) + 1):
        c = p[i]
        quot.append(c)
        if c:
            for j in range(1, len(d)):
                p[i + j] -= c * d[j]
    return trim(tuple(quot)), trim(tuple(p[len(p) - len(d) + 1:]))


def divides_monic(d, p):
    _, rem = divmod_monic(p, d)
    return rem == ()


def deflate_root(p, r):
    """Divide p by (x - r) exactly; raises NotDivisible if r is not a root."""
    quot, rem = divmod_monic(p, (1, -r))
    if rem:
        raise NotDivisible(f"{r} is not a root")
    return quot


def derivative(p):
    p = trim(p)
    n = len(p) - 1
    return trim(tuple(c * (n - i) for i, c in enumerate(p[:-1])))


def monic_over_q(p):
    p = trim(p)
    if not p:
        return ()
    lead = Fraction(p[0])
    return tuple(Fraction(c) / lead for c in p)


def gcd_over_q(p, q):
    """Monic gcd over Q by the Euclidean algorithm."""
    a, b = monic_over_q(p), monic_over_q(q)
    while b:
        a, b = b, monic_over_q(divmod_monic(a, b)[1])
    return a


def primitive_int(v):
    """Clear denominators and content; the first nonzero entry becomes positive.

    Serves coefficient lists and vectors alike, so nothing is trimmed.
    """
    fracs = [Fraction(c) for c in v]
    denom = 1
    for c in fracs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in fracs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g:
        ints = [c // g for c in ints]
    if next((c for c in ints if c), 0) < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def char_poly(a: IntMatrix):
    """Characteristic polynomial det(xI - A), monic integer, descending.

    Faddeev-LeVerrier in integers: M_1 = A, c_k = -tr(M_k) / k and
    M_{k+1} = A (M_k + c_k I); every division is exact.
    """
    n = a.dim
    coeffs = [1]
    mk = a
    for k in range(1, n + 1):
        ck, rem = divmod(-mk.trace(), k)
        if rem:
            raise RuntimeError("char_poly coefficients must be integers")
        coeffs.append(ck)
        if k < n:
            mk = a * (mk + ck * IntMatrix.identity(n))
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


_cyclo_cache = {1: (1, -1)}


def cyclotomic(m: int):
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m in _cyclo_cache:
        return _cyclo_cache[m]
    num = (1,) + (0,) * (m - 1) + (-1,)
    for d in range(1, m):
        if m % d == 0:
            num, rem = divmod_monic(num, cyclotomic(d))
            assert rem == ()
    _cyclo_cache[m] = num
    return num


def has_root_of_unity_factor(p) -> bool:
    """True when some cyclotomic polynomial divides p (p monic integer).

    Only m with euler_phi(m) <= deg p can contribute, and phi(m) >= sqrt(m/2),
    so scanning m up to 2*deg^2 + 6 is exhaustive.
    """
    b = degree(p)
    for m in range(1, 2 * b * b + 7):
        if euler_phi(m) <= b and divides_monic(cyclotomic(m), p):
            return True
    return False


def _positive_scale(p):
    """Divide by |leading coefficient|: tames growth, preserves every sign."""
    p = trim(p)
    if not p:
        return p
    lead = abs(Fraction(p[0]))
    return tuple(Fraction(c) / lead for c in p)


def sturm_sequence(p):
    q = monic_over_q(p)  # same real roots as p, positive leading coefficient
    seq = [q, _positive_scale(derivative(q))]
    while seq[-1]:
        rem = divmod_monic(seq[-2], monic_over_q(seq[-1]))[1]
        if not rem:
            break
        seq.append(_positive_scale(tuple(-c for c in rem)))
    return [s for s in seq if s]


def sign_changes(seq, x):
    signs = []
    for s in seq:
        v = evaluate(s, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(seq, lo, hi):
    """Distinct real roots in (lo, hi], endpoints assumed non-roots of seq[0]."""
    return sign_changes(seq, lo) - sign_changes(seq, hi)


def cauchy_bound(p):
    """All roots have modulus < this bound (p nonzero)."""
    p = trim(p)
    lead = abs(Fraction(p[0]))
    mx = max((abs(Fraction(c)) for c in p[1:]), default=Fraction(0))
    return 1 + mx / lead


def isolate_real_roots(p, width=Fraction(1, 10**13)):
    """Disjoint rational intervals (lo, hi], one distinct real root each.

    p must be square-free. Returns a list sorted by position.
    """
    p = trim(p)
    if degree(p) <= 0:
        return []
    seq = sturm_sequence(p)
    b = cauchy_bound(p)
    lo, hi = -b, b
    # endpoints of the Cauchy bound are never roots
    stack = [(lo, hi, count_real_roots(seq, lo, hi))]
    found = []
    while stack:
        a, c, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            while c - a > width:
                mid = (a + c) / 2
                if evaluate(p, mid) == 0:
                    # land exactly on the root; shrink symmetrically around it
                    a, c = mid - width / 2, mid + width / 2
                    break
                if count_real_roots(seq, a, mid) == 1:
                    c = mid
                else:
                    a = mid
            found.append((a, c))
            continue
        mid = (a + c) / 2
        while evaluate(p, mid) == 0:
            mid = (a + mid) / 2
        cl = count_real_roots(seq, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, c, cnt - cl))
    return sorted(found)


def schur_all_roots_in_open_disk(p) -> bool:
    """True iff every root of p lies strictly inside the unit circle.

    Classical Schur-Cohn reduction over exact rationals. The reduction
    keeps a positive leading coefficient, so it never degenerates once the
    strict |constant| < |leading| gate passes.
    """
    p = [Fraction(c) for c in trim(p)]
    if not p:
        raise ValueError("zero polynomial")
    while len(p) > 1:
        a0, an = p[0], p[-1]
        if abs(an) >= abs(a0):
            return False
        n = len(p) - 1
        p = [a0 * p[k] - an * p[n - k] for k in range(n)]
        p = [Fraction(c) for c in trim(tuple(p))] or [Fraction(1)]
    return True


def all_roots_outside_closed_disk(p, radius=Fraction(1)) -> bool:
    """True iff every root z of p has |z| > radius (exact test)."""
    p = trim(p)
    if degree(p) <= 0:
        return True
    if radius <= 0:
        return evaluate(p, Fraction(0)) != 0
    # substitute x -> radius * x, clear denominators, then invert
    n = degree(p)
    scaled = [Fraction(c) * radius ** (n - i) for i, c in enumerate(p)]
    rev = tuple(reversed(scaled))
    rev = trim(rev)
    if len(rev) < len(scaled):
        return False  # root at 0
    return schur_all_roots_in_open_disk(rev)
