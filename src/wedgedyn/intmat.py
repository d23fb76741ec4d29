"""Exact integer matrices, one integer elimination, and Smith normal form.

Everything here is pure Python over int. One fraction-free Gauss-Jordan
(Bareiss) elimination, _gauss_jordan, serves IntMatrix.det, rat_inverse
and kernel, and its pivot step, bareiss_pivot, also drives the exact
simplex of rotation's hulls; snf is the only other elimination. As
rat_inverse carries m^-1 in [m | I], snf carries its transforms U and V as
blocks of one integer matrix [[M, I], [I, 0]], and it tracks no inverse.
One IntMatrix.det of M certifies U and V unimodular: U M V = D and
|det M| = |det D| != 0 leave |det U det V| = 1 for integer determinants.
A rational matrix is always an integer matrix over one positive
denominator: rat_inverse returns m^-1 as (N, den), and callers scale their
numerators by den instead of building Fractions; where a table of one
Fraction per numerator is needed after all, fraction builds each without
the generic Fraction constructor.
Matrices are immutable (tuples of tuples) so they can be dict keys and set
members, and IntMatrix.identity(n) is one shared object per n.
_integer and _rational are the package's one rule for exact input, and
IntMatrix takes its entries through _integer; _at_least is its rule for
counts, levels and indices. A matrix keeps its determinant once taken, so
a budget check and the Smith form of one matrix share one elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, prod
from numbers import Rational
from operator import add, index, mul, sub

from .errors import DimensionMismatch, SingularMatrix


def _integer(x, name: str) -> int:
    """x as an int, through operator.index: ints, bools and numpy ints pass,
    while floats, Fractions and strings raise a TypeError naming name."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {x!r}") from None


def _at_least(x, name: str, least: int) -> int:
    """x as an int >= least: through operator.index as in _integer, then a
    ValueError naming name when it falls below least."""
    try:
        x = index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {x!r}") from None
    if x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return x


def _rational(x, name: str) -> Fraction:
    """x as a Fraction: ints, bools, Fractions and numpy ints are
    numbers.Rational and pass, while floats and strings raise a TypeError
    naming name."""
    if not isinstance(x, Rational):
        raise TypeError(f"{name} must be numbers.Rational, such as int or Fraction, got {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(_integer(x, "matrix entry") for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(len(r) != len(rows) for r in rows):
            raise DimensionMismatch("matrix must be square")

    @staticmethod
    @cache
    def identity(n: int) -> "IntMatrix":
        """I_n, built once per n: matrices are immutable, so one is shared."""
        return _int_matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check(other)
        return _int_matrix(tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check(other)
        return _int_matrix(tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other):
        if isinstance(other, int):
            return _int_matrix(tuple([tuple([other * x for x in r]) for r in self.rows]))
        self._check(other)
        cols = list(zip(*other.rows))
        return _int_matrix(tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in self.rows]))

    __rmul__ = __mul__

    def __neg__(self) -> "IntMatrix":
        return self * -1

    def __pow__(self, k: int) -> "IntMatrix":
        """A^k for k >= 0; a negative power is rational (see rat_inverse)."""
        k = _at_least(k, "k", 0)
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return IntMatrix.identity(self.dim) if out is None else out

    def apply(self, vec) -> tuple:
        """Matrix-vector product; accepts int or Fraction entries."""
        if len(vec) != self.dim:
            raise DimensionMismatch("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) for r in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def det(self) -> int:
        """sign * d from _gauss_jordan, or 0 when the rank falls short; the
        matrix is immutable, so it keeps the value once taken."""
        return self._det

    @cached_property
    def _det(self) -> int:
        _, pivots, sign, d = _gauss_jordan(self.rows)
        return sign * d if len(pivots) == self.dim else 0

    def _check(self, other):
        if not isinstance(other, IntMatrix):
            raise TypeError(f"IntMatrix expected, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionMismatch("matrix dimensions differ")


def _int_matrix(rows: tuple) -> IntMatrix:
    """An IntMatrix from square tuple rows of ints that an operation on
    IntMatrix operands produced, built without the constructor's per-entry
    validation: ints are closed under + - *."""
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "rows", rows)
    return m


def _gauss_jordan(rows):
    """Fraction-free Gauss-Jordan (Bareiss) on n integer rows, pivoting in
    the first n columns and skipping any column with no pivot.

    Returns (rows, pivots, sign, d): row r has its pivot in column
    pivots[r], sign is that of the row swaps and d the last pivot (1 if
    none). Each step divides exactly by the previous pivot, so every entry
    stays an integer minor and every pivot ends equal to d.
    """
    a = [list(r) for r in rows]
    n = len(a)
    pivots, sign, prev = [], 1, 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prev = bareiss_pivot(a, r, c, prev)
        pivots.append(c)
    return a, pivots, sign, prev


def bareiss_pivot(a, r: int, c: int, prev: int) -> int:
    """The Bareiss step on entry (r, c) of the integer rows a, in place, for
    _gauss_jordan and rotation's simplex: with p = a[r][c], every other row
    becomes (p * row - row[c] * a[r]) // prev and row r stays. If a was
    prev * B^-1 M for a column basis B of M with det B = prev, it is now
    p * B'^-1 M, where B' swaps column c in for row r's basic column and
    det B' = p, so the division is exact. Returns p."""
    p, pivot_row = a[r][c], a[r]
    for i in range(len(a)):
        if i != r:
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
    return p


def rat_inverse(m: IntMatrix) -> tuple:
    """The exact inverse as (N, den): N an IntMatrix and den > 0 with
    m * N = den * I, den being the lcm of the denominators of m^-1.

    _gauss_jordan turns [m | I] into [d I | d m^-1] with d = +-det(m); both
    halves are then divided by gcd(d, content). Raises SingularMatrix when
    det = 0.
    """
    n = m.dim
    a, pivots, _, d = _gauss_jordan([list(r) + [int(i == j) for j in range(n)]
                                     for i, r in enumerate(m.rows)])
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    inv = [r[n:] if d > 0 else [-x for x in r[n:]] for r in a]
    g = gcd(d, *(x for r in inv for x in r))
    return IntMatrix(tuple(tuple(x // g for x in r) for r in inv)), abs(d) // g


def fraction(n: int, d: int) -> Fraction:
    """The reduced Fraction n / d, for an int n and an int d > 0.

    Fraction(n, d) dispatches on the types of its arguments and fixes the
    sign before it reduces. Here both are trusted to be ints with d > 0, so
    one gcd reduces the pair and the two slots are written directly,
    keeping n and d themselves when they are already coprime. That is less
    than half the cost of Fraction(n, d) on CPython 3.11, which the
    per-numerator tables of beta_breakpoints, psi, enumerate_fixed and
    TightMap.periodic_points pay once per value. This is the one place in
    the package that writes Fraction's private slots, and
    tests/test_intmat.py checks it against Fraction(n, d).
    """
    g = gcd(n, d)
    f = object.__new__(Fraction)
    if g == 1:
        f._numerator, f._denominator = n, d
    else:
        f._numerator, f._denominator = n // g, d // g
    return f


def primitive_int(v) -> tuple:
    """Divide integers by their content, signed so that the first nonzero
    entry becomes positive; serves coefficient lists and vectors alike."""
    g = gcd(*v) * (-1 if next((c for c in v if c), 0) < 0 else 1)
    return tuple(c // g for c in v) if g not in (0, 1) else tuple(v)


def kernel(m: IntMatrix) -> list:
    """Primitive integer kernel basis of m, led positive: for each column f
    without a pivot, x_f = d and x_{pivots[r]} = -row_r[f] solve every
    reduced row d x_{pivots[r]} + sum over free f of row_r[f] x_f = 0."""
    a, pivots, _, d = _gauss_jordan(m.rows)
    row_of = dict(zip(pivots, a))
    return [primitive_int([-row_of[j][f] if j in row_of else d * (j == f) for j in range(m.dim)])
            for f in range(m.dim) if f not in row_of]


@dataclass(frozen=True)
class SnfDecomposition:
    """U * M * V = D for the decomposed matrix M, with U, V unimodular
    (|det| = 1) and D diagonal, d_i | d_{i+1} >= 0, so |det M| is the
    product of the diagonal."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @cached_property
    def diagonal(self) -> tuple:
        """d_1, ..., d_n, read off D once."""
        return tuple(self.D.rows[i][i] for i in range(self.D.dim))

    @property
    def invariant_factors(self) -> tuple:
        """The diagonal entries > 1 (the cyclic factors of the cokernel)."""
        return tuple(d for d in self.diagonal if d > 1)


def snf(m: IntMatrix) -> SnfDecomposition:
    """Smith normal form with a deterministic pivot rule.

    Pivot selection always takes the smallest-absolute-value nonzero entry of
    the remaining submatrix, ties broken by lowest row index then lowest
    column index, so equal inputs give identical (U, D, V). The row-major
    scan stops at the first entry of absolute value 1, which no later
    entry can beat.

    U and V are carried as blocks of one integer matrix, as rat_inverse
    carries m^-1 in [m | I]: the elimination runs on [[M, I], [I, 0]], so
    a row operation on one of the first n rows also acts on U (top right)
    and a column operation on one of the first n columns also acts on V
    (bottom left). Before the form is returned it checks U M V = D, that D
    is diagonal with the divisor chain, and |det M| = d_1 ... d_n from one
    IntMatrix.det of M. When det M != 0, det U det M det V = det D then
    leaves |det U det V| = 1, so both integer determinants are +-1; when
    det M = 0, |det U| = |det V| = 1 is checked directly.

    >>> snf(IntMatrix(((2, 0), (0, 3)))).diagonal
    (1, 6)
    """
    n = m.dim
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    a += [[int(i == j) for j in range(n)] + [0] * n for i in range(n)]

    def pivot(t):
        # (|entry|, row, col) of the pivot in the submatrix from (t, t), or None
        best = None
        for i in range(t, n):
            for j in range(t, n):
                x = abs(a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
                    if x == 1:
                        return best
        return best

    for t in range(n):
        while True:
            best = pivot(t)
            if best is None:
                break
            _, pi, pj = best
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for r in a:
                    r[t], r[pj] = r[pj], r[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            top = a[t]
            p = top[t]
            for i in range(t + 1, n):  # clear column t: row i -= q * row t
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], top)]
            for j in range(t + 1, n):  # clear row t: column j -= q * column t
                q = top[j] // p
                if q:
                    for r in a:
                        r[j] -= q * r[t]
            # neither loop touches the line the other clears, so their
            # remainders are read once both are done
            if any(r[t] for r in a[t + 1:n]) or any(top[t + 1:n]):
                continue
            # pivot divides its cleared row/column; enforce it divides the rest
            viol = next((i for i in range(t + 1, n) for j in range(t + 1, n) if a[i][j] % p), None)
            if viol is None:
                break
            a[t] = list(map(add, top, a[viol]))  # fold the offending row in, then re-reduce

    U = _int_matrix(tuple(tuple(r[n:]) for r in a[:n]))
    D = _int_matrix(tuple(tuple(r[:n]) for r in a[:n]))
    V = _int_matrix(tuple(tuple(r[:n]) for r in a[n:]))
    if U * m * V != D:
        raise RuntimeError("SNF internal check failed: U*M*V != D")
    form = SnfDecomposition(U=U, D=D, V=V)
    diag = form.diagonal
    for i in range(n):
        for j in range(n):
            if i != j and D.rows[i][j] != 0:
                raise RuntimeError("SNF internal check failed: D not diagonal")
    for x, y in zip(diag, diag[1:]):
        if x < 0 or y < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
            raise RuntimeError("SNF internal check failed: divisor chain broken")
    det = abs(m.det())
    if det != prod(diag):
        raise RuntimeError("SNF internal check failed: |det M| != product of the diagonal")
    # det U det M det V = det D, so a nonzero det M leaves |det U det V| = 1
    if det == 0 and (abs(U.det()) != 1 or abs(V.det()) != 1):
        raise RuntimeError("SNF internal check failed: transforms not unimodular")
    return form
