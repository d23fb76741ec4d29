"""Certified spectral analysis of integer matrices.

Eigenvalues of small integer matrices, each an integer or certified to
within a rational eps, an exact expansion test, and the one norm
constructor, norm_data, whose norms the shadowing machinery asks for
squared lengths, segment gaps and a sup-norm radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf, isfinite, isqrt, prod
from operator import mul

from . import polys
from .errors import AdaptedNormUnavailable, NotExpanding
from .intmat import IntMatrix, kernel, primitive_int, rat_inverse


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
    """One eigenvalue, re + im*i, with |true - reported| <= eps."""

    re: Fraction
    im: Fraction
    eps: Fraction
    multiplicity: int

    @property
    def exact(self) -> bool:
        """True when the eigenvalue is the integer re."""
        return self.eps == 0 and self.im == 0


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


def _seeds(p, s):
    """Root estimates of p as Gaussian integers (x, y) for (x + y i) / 2^s,
    from float Durand-Kerner sweeps that start at (0.4 + 0.9i)^k and stop
    once the largest correction, under 1e-9 of the estimates, stops shrinking.

    When a coefficient of p = sum c_k x^(n-k) is beyond float range, the
    sweeps run on p(2^m w) / (c_0 2^(mn)), whose roots are those of p over
    2^m: m is the largest ceil((bits(c_k) - bits(c_0)) / k), so that
    |c_k / c_0| < 2^(mk + 1) and every coefficient is a float below 2."""
    try:
        coeffs, m = [complex(c) / p[0] for c in p], 0
    except OverflowError:
        top = abs(p[0]).bit_length()
        m = max(-((top - abs(c).bit_length()) // k) for k, c in enumerate(p) if k and c)
        coeffs = [complex(Fraction(c, p[0]) / Fraction(2) ** (m * k)) for k, c in enumerate(p)]
    zs = [(0.4 + 0.9j) ** k for k in range(len(p) - 1)]
    last = inf
    for _ in range(300):
        steps = []
        for i, z in enumerate(zs):
            den, acc = prod(z - w for j, w in enumerate(zs) if j != i), 0j
            for c in coeffs:
                acc = acc * z + c
            steps.append(acc / den if den else 0j)
        zs = [z - d for z, d in zip(zs, steps)]
        big = max(map(abs, steps))
        if not big < last and big <= 1e-9 * (1 + max(map(abs, zs))):
            break
        last = big
    grid = Fraction(2) ** (s + m)
    return [tuple(round(Fraction(c) * grid) if isfinite(c) else 0
                  for c in (z.real, z.imag)) for z in zs]


def _apart(zs, s):
    """zs in order, the k-th repeat of a point moved off it by (0.4 + 0.9i)^k
    on the grid of step 2^-s, as the Durand-Kerner start spreads points."""
    out = []
    for x, y in zs:
        w, k, u, v = (x, y), 0, 1, 0
        while w in out:
            k, u, v = k + 1, 4 * u - 9 * v, 9 * u + 4 * v
            w = (x + (u << s) // 10 ** k, y + (v << s) // 10 ** k)
        out.append(w)
    return out


def _conjugate_pairs(p, nreal, mult):
    """The non-real roots of the square-free integer polynomial p, which
    has nreal real roots, as Eigenvalues of multiplicity mult.

    The points z_i = (x_i + y_i i) / 2^s, one per root, have Weierstrass
    corrections W_i = p(z_i) / (lead ∏_{j≠i} (z_i - z_j)), and a disk
    D(z_i, n|W_i|) that meets no other holds exactly one root (B. T. Smith,
    J. ACM 17, 1970). Once the disks are apart and no wider than a real
    root's interval, one above the real axis holds a non-real root, its
    mirror image the conjugate, and (n - nreal)/2 of them hold them all.
    Until then each point takes its exact Weierstrass step rounded to the
    grid, and s doubles when a step does not shrink the largest radius.
    A radius R_i is counted in whole grid steps: eps = R_i / 2^s.
    """
    n, lead = len(p) - 1, p[0]
    s = 56 + ceil(polys.cauchy_bound(p)).bit_length()
    zs, last = _seeds(p, s), None
    while True:
        zs = _apart(zs, s)
        radii, steps = [], []
        for i, (x, y) in enumerate(zs):
            # 2^(ns) p(z_i), lead ∏ (Z_i - Z_j) and 2^s W_i = (nr + ni i) / den
            pr = pi = 0
            for k, c in enumerate(p):
                pr, pi = pr * x - pi * y + (c << s * k), pr * y + pi * x
            dr, di = lead, 0
            for u, v in zs[:i] + zs[i + 1:]:
                dr, di = dr * (x - u) - di * (y - v), dr * (y - v) + di * (x - u)
            den = dr * dr + di * di
            nr, ni = pr * dr + pi * di, pi * dr - pr * di
            q = -(-n * n * (nr * nr + ni * ni) // (den * den))
            radii.append(isqrt(q - 1) + 1 if q else 0)
            steps.append((x - (2 * nr + den) // (2 * den), y - (2 * ni + den) // (2 * den)))
        big, tol = max(radii), polys._WIDTH * (1 << s) / 2
        if big <= tol and all((x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2
                              for i, ((x, y), r) in enumerate(zip(zs, radii))
                              for (u, v), t in zip(zs[i + 1:], radii[i + 1:])):
            upper = [(x, y, r) for (x, y), r in zip(zs, radii) if y > r]
            if 2 * len(upper) == n - nreal:
                return [Eigenvalue(Fraction(x, 1 << s), Fraction(sign * y, 1 << s),
                                   Fraction(r, 1 << s), mult)
                        for x, y, r in upper for sign in (1, -1)]
        if last is not None and last <= big <= tol:
            zs, s, last = [(x << s, y << s) for x, y in steps], 2 * s, None
        else:
            zs, last = steps, big


def spectral(a: IntMatrix) -> SpectralReport:
    """Full certified spectral report for a square integer matrix."""
    p = polys.char_poly(a)
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
        if polys.degree(sf) > len(intervals):
            eigs.extend(_conjugate_pairs(sf, len(intervals), mult))

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
