"""Certified spectral analysis of integer matrices.

Eigenvalues of small integer matrices with exact or rigorously bounded
values, an exact root-of-unity test, an exact expansion test, and the one
norm constructor, norm_data, whose norms the shadowing machinery asks for
squared lengths, segment gaps and a sup-norm radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

from . import polys
from .errors import AdaptedNormUnavailable, NotExpanding
from .intmat import IntMatrix, kernel, primitive_int, rat_inverse


def _sqrt_interval(x: Fraction):
    """Rational lo <= sqrt(x) <= hi with hi - lo = 1e-14."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 10 ** 28
    n = (x.numerator * scale) // x.denominator
    s = isqrt(n)
    return Fraction(s, 10 ** 14), Fraction(s + 1, 10 ** 14)


def rational_sqrt_upper(x: Fraction) -> Fraction:
    """A rational c >= sqrt(x), exact when x is a perfect rational square,
    otherwise within 1e-14."""
    if x < 0:
        raise ValueError("negative radicand")
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    scale = 10 ** 28
    n = -((-x.numerator * scale) // x.denominator)
    return Fraction(isqrt(n) + 1, 10 ** 14)


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue, re + im*i, |true - reported| <= eps (eps=0 means exact).

    eps=None marks a best-effort float estimate with no certificate; the
    boolean report fields never depend on those.
    """

    re: Fraction
    im: Fraction
    eps: "Fraction | None"
    multiplicity: int

    @property
    def exact(self) -> bool:
        return self.eps == 0


@dataclass(frozen=True)
class LipschitzNormData:
    """A norm in which A certifiably expands by lam (and A^-1 contracts).

    With gram = (G, d), G an integer positive-definite matrix over d > 0,
    ||v||^2 = v^T G v / d exactly: kind "eigenbasis" is ||P^-1 v||_2 for an
    integer eigenbasis P, and with P^-1 = N / den, gram = (N^T N, den^2).
    With gram None it is the sup norm, kind "sup". radius is an integer
    with ||v||_inf <= radius ||v||. Build one with norm_data.
    """

    kind: str
    gram: "tuple | None"
    lam: Fraction
    radius: int

    def q2(self, vec):
        """Squared norm of an integer vector, exact as (num, den) with
        den > 0. den depends only on the norm, so the largest num marks
        the longest vector."""
        if self.gram is None:
            m = max(map(abs, vec))
            return m * m, 1
        g, den2 = self.gram
        return sum(map(mul, vec, g.apply(vec))), den2

    def gap2(self, e1, e2, c):
        """Squared distance between the unit axis segments n1 + [0,1] e_e1
        and n2 + [0,1] e_e2, c = n1 - n2, exact as (num, den) with den > 0."""
        if self.gram is None:
            gap = max(max(x - (i == e2), -x - (i == e1), 0) for i, x in enumerate(c))
            return gap * gap, 1
        g, den2 = self.gram
        num, den = _box_min(g.rows, e1, e2, c)
        return num, den * den2


def _box_min(h, e1, e2, c):
    """Exact min of w^T h w over w = c + t e_e1 - u e_e2, (t, u) in [0,1]^2,
    as (num, den) with den > 0, for integer positive-definite h and c.

    The quadratic is convex: its interior critical point when feasible,
    else the least of the four edge minima.
    """
    hc = [sum(x * y for x, y in zip(r, c)) for r in h]
    q0 = sum(x * y for x, y in zip(c, hc))
    l1, l2 = hc[e1], hc[e2]
    q11, q22, q12 = h[e1][e1], h[e2][e2], h[e1][e2]
    det = q11 * q22 - q12 * q12
    if det > 0:
        tn = q12 * l2 - q22 * l1
        un = q11 * l2 - q12 * l1
        if 0 <= tn <= det and 0 <= un <= det:
            return q0 * det + l1 * tn - l2 * un, det
    best = None
    for num, den in (_unit_min(q0, -l2, q22), _unit_min(q0 + 2 * l1 + q11, -l2 - q12, q22),
                     _unit_min(q0, l1, q11), _unit_min(q0 - 2 * l2 + q22, l1 - q12, q11)):
        if best is None or num * best[1] < best[0] * den:
            best = num, den
    return best


def _unit_min(a, b, g):
    """Min of a + 2 b x + g x^2 over x in [0, 1], g > 0, as (num, den)."""
    if b >= 0:
        return a, 1
    if b + g <= 0:
        return a + 2 * b + g, 1
    return a * g - b * b, g


@dataclass(frozen=True)
class SpectralReport:
    matrix: IntMatrix
    charpoly: tuple
    eigenvalues: tuple
    is_expanding: bool
    has_root_of_unity: bool
    lambda_lower: Fraction


def _squarefree_decomposition(p):
    """Musser's algorithm over Z on primitive parts led positive, exact
    quotients by pseudo-division; returns (primitive factor, multiplicity)."""
    def quo(a, b):
        return primitive_int(polys.pseudo_divmod(a, b)[0])

    p = primitive_int(p)
    if polys.degree(p) <= 0:
        return []
    c = polys.gcd_primitive(p, polys.derivative(p))
    w = quo(p, c)
    out, i = [], 1
    while polys.degree(w) > 0:
        y = polys.gcd_primitive(w, c)
        z = quo(w, y)
        if polys.degree(z) > 0:
            out.append((z, i))
        w = y
        c = quo(c, y)
        i += 1
    return out


def _durand_kerner(p):
    """Float root estimates for leftovers we cannot certify. Deterministic."""
    p = polys.trim(p)
    n = polys.degree(p)
    lead = p[0]
    coeffs = [complex(c) / lead for c in p]

    def ev(z):
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc

    roots = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(300):
        new = []
        for i, z in enumerate(roots):
            den = 1 + 0j
            for j, w in enumerate(roots):
                if i != j:
                    den *= (z - w)
            new.append(z - ev(z) / den if den != 0 else z)
        roots = new
    return roots


def spectral(a: IntMatrix) -> SpectralReport:
    """Full certified spectral report for a square integer matrix."""
    p = polys.char_poly(a)
    unity = polys.has_root_of_unity_factor(p)
    eigs = []
    for sf, mult in _squarefree_decomposition(p):
        intervals = polys.isolate_real_roots(sf)
        # an interval is at most _WIDTH < 1 wide, so it holds at most one
        # integer; the exact integer roots are divided out and the rest of
        # the factor isolated again
        ints = [r for lo, hi in intervals
                if lo <= (r := round(lo)) <= hi and polys.evaluate(sf, r) == 0]
        if ints:
            for r in ints:
                eigs.append(Eigenvalue(Fraction(r), Fraction(0), Fraction(0), mult))
                sf = polys.pseudo_divmod(sf, (1, -r))[0]
            intervals = polys.isolate_real_roots(sf)
        for lo, hi in intervals:
            mid = (lo + hi) / 2
            eigs.append(Eigenvalue(mid, Fraction(0), (hi - lo) / 2, mult))
        deg = polys.degree(sf)
        ncomplex = deg - len(intervals)
        if ncomplex == 0:
            continue
        if ncomplex == 2:
            # exactly one conjugate pair: pin it down through Vieta
            top, const = Fraction(sf[1], sf[0]), Fraction(sf[-1], sf[0])
            sum_lo = sum(lo for lo, _ in intervals)
            sum_hi = sum(hi for _, hi in intervals)
            re_lo = (-top - sum_hi) / 2
            re_hi = (-top - sum_lo) / 2
            prod_lo, prod_hi = Fraction(1), Fraction(1)
            for lo, hi in intervals:
                cand = [prod_lo * lo, prod_lo * hi, prod_hi * lo, prod_hi * hi]
                prod_lo, prod_hi = min(cand), max(cand)
            total = const if deg % 2 == 0 else -const
            if intervals:
                # pair_prod = total / (product of real roots)
                cand = [total / prod_lo, total / prod_hi]
                mod2_lo, mod2_hi = min(cand), max(cand)
            else:
                mod2_lo = mod2_hi = total
            re_mid = (re_lo + re_hi) / 2
            if re_lo <= 0 <= re_hi:
                re2_lo = Fraction(0)
            else:
                re2_lo = min(re_lo * re_lo, re_hi * re_hi)
            re2_hi = max(re_lo * re_lo, re_hi * re_hi)
            im2_lo = max(Fraction(0), mod2_lo - re2_hi)
            im2_hi = max(Fraction(0), mod2_hi - re2_lo)
            im_lo, _ = _sqrt_interval(im2_lo)
            _, im_hi = _sqrt_interval(im2_hi)
            im_mid = (im_lo + im_hi) / 2
            eps = max((re_hi - re_lo) / 2, (im_hi - im_lo) / 2)
            eigs.append(Eigenvalue(re_mid, im_mid, eps, mult))
            eigs.append(Eigenvalue(re_mid, -im_mid, eps, mult))
        else:
            seen_real = 0
            for z in sorted(_durand_kerner(sf), key=lambda z: (z.real, z.imag)):
                if abs(z.imag) < 1e-9:
                    if seen_real < len(intervals):
                        seen_real += 1
                        continue
                eigs.append(Eigenvalue(Fraction(z.real).limit_denominator(10 ** 12),
                                       Fraction(z.imag).limit_denominator(10 ** 12), None, mult))

    eigs.sort(key=lambda e: (e.re, e.im))

    # a root at 0 (det A = 0) already fails the disk test
    expanding = polys.all_roots_outside_closed_disk(p, Fraction(1))

    if all(e.exact for e in eigs):
        lam = min((abs(e.re) for e in eigs), default=Fraction(0))
    else:
        lam = _bisect_lambda(p, min(e.re * e.re + e.im * e.im for e in eigs))

    return SpectralReport(
        matrix=a,
        charpoly=p,
        eigenvalues=tuple(eigs),
        is_expanding=expanding,
        has_root_of_unity=unity,
        lambda_lower=lam,
    )


def _bisect_lambda(p, hint=None):
    """Certified rational lower bound for the smallest root modulus rho.

    With hn/den the Cauchy bound and t the first value with
    hn·10^9 < den·2^t (at most 80), the bound is j·hn/(den·2^t) for the one
    j with P(j) true and P(j + 1) false, where P(i) says that every root
    has |z| > i·hn/(den·2^t). P is monotone, so any bracket lo < hi with
    P(lo) true and P(hi) false closes on j. The hint, an estimate of
    rho^2, only picks the first indices tested; any hint, or none, gives
    the same bound.
    """
    if p[-1] == 0:  # a root at 0
        return Fraction(0)
    hn, den = polys.cauchy_bound(p).as_integer_ratio()
    t = min(80, (hn * 10 ** 9 // den).bit_length())
    den <<= t
    # P(0) holds and P(2^t), at the Cauchy bound, fails: neither is tested
    lo, hi = 0, 1 << t
    guesses = ()
    if hint is not None:
        # the largest g with (g·hn/den)^2 < hint (0 if none), then its neighbours
        n, d = Fraction(hint).as_integer_ratio()
        g = isqrt(max(-(-n * den * den // (d * hn * hn)) - 1, 0))
        guesses = (g, g + 1, g - 1, g + 2)
    guesses = iter(guesses)
    while hi - lo > 1:
        mid = next(guesses, (lo + hi) // 2)
        if lo < mid < hi:
            if polys.all_roots_outside_closed_disk(p, Fraction(mid * hn, den)):
                lo = mid
            else:
                hi = mid
    return Fraction(lo * hn, den)


def norm_data(report: SpectralReport, kind: str = "adapted") -> LipschitzNormData:
    """The norm of the given kind for an expanding A = report.matrix.

    kind "adapted": the exact eigenbasis norm when every eigenvalue is
    exact (an integer) and their eigenvectors span, otherwise the sup norm
    when it certifies; AdaptedNormUnavailable when neither does. kind
    "sup": the sup norm, NotExpanding unless ||A^-1||_inf < 1.
    """
    if not report.is_expanding:
        raise NotExpanding("abelianization is not expanding")
    if kind not in ("adapted", "sup"):
        raise ValueError(f"unknown norm {kind!r}")
    a = report.matrix
    if kind == "adapted" and all(e.exact for e in report.eigenvalues):
        basis = []
        # every eigenvalue is an integer: the charpoly is monic over Z
        for lam_i in sorted({e.re.numerator for e in report.eigenvalues}):
            basis.extend(kernel(a - lam_i * IntMatrix.identity(a.dim)))
        if len(basis) == a.dim:
            P = IntMatrix(tuple(zip(*basis)))
            N, den = rat_inverse(P)
            return LipschitzNormData(kind="eigenbasis", gram=(N.transpose() * N, den * den),
                                     lam=report.lambda_lower,
                                     radius=max(sum(map(abs, r)) for r in P.rows))
    N, den = rat_inverse(a)
    row = max(sum(map(abs, r)) for r in N.rows)
    if row < den:
        return LipschitzNormData(kind="sup", gram=None, lam=Fraction(den, row), radius=1)
    if kind == "sup":
        raise NotExpanding("matrix does not contract the sup norm backwards")
    raise AdaptedNormUnavailable("no exact adapted norm for this matrix")
