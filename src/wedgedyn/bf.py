"""Bowen-Franks groups BF_k(A) = Z^b / (A^k - I) Z^b and their direct limit.

The standing hypothesis (no eigenvalue of A is a root of unity) makes every
A^k - I invertible, so each BF_k is finite of order |det(A^k - I)| and the
monomorphism Psi embeds it into the rational points of the torus fixed by
the k-th power of the induced toral map.

One Smith form U (A^k - I) V = D serves each group: cosets reduce U n
modulo the diagonal, and Psi is read off (A^k - I)^-1 = V D^-1 U. The
bonding maps of the direct limit go through Psi as well: upsilon sends a
class of BF_i to the class of BF_j with the same torus point. While a
group of A lives, a new BFGroup(A, j) skips the hypothesis check and shares
A's tower of A^k - I and Smith forms (_Tower), which dies with the last group.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from operator import add, index, mod, mul

from .errors import BudgetExceeded, DimensionMismatch, NotDivisible, RootOfUnitySpectrum
from .intmat import IntMatrix, fraction, snf
from .polys import char_poly, has_root_of_unity_factor


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^b = (R/Z)^b with exact rational coordinates in [0, 1)."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_rational(c, "torus coordinate") % 1
                                                 for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _integer(x, name: str) -> int:
    """x as an int, through operator.index: ints, bools and numpy ints pass,
    while floats, Fractions and strings raise a TypeError naming name."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {x!r}") from None


def _rational(x, name: str) -> Fraction:
    """x as a Fraction: ints, bools, Fractions and numpy ints are
    numbers.Rational and pass, while floats and strings raise a TypeError
    naming name."""
    if not isinstance(x, Rational):
        raise TypeError(f"{name} must be numbers.Rational, such as int or Fraction, got {x!r}")
    return Fraction(x)


def _torus_point(coords: tuple) -> TorusPoint:
    """A TorusPoint from Fractions already reduced into [0, 1), built
    without the constructor's per-coordinate reduction."""
    p = object.__new__(TorusPoint)
    object.__setattr__(p, "coords", coords)
    return p


class _Tower:
    """A^k - I (in M) and its Smith form (in snf) by level k, shared by the
    groups of one A that passed the root-of-unity check; held weakly."""

    __slots__ = ("M", "snf", "__weakref__")

    def __init__(self):
        self.M, self.snf = {}, {}


_towers = weakref.WeakValueDictionary()  # A.rows -> the _Tower of A's live groups


@dataclass(frozen=True)
class BFGroup:
    """BF_k(A), with coset canonicalization through the Smith form of A^k - I."""

    A: IntMatrix
    k: int
    _tower: _Tower = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        tower = _towers.get(self.A.rows)
        if tower is None:
            if has_root_of_unity_factor(char_poly(self.A)):
                raise RootOfUnitySpectrum("A has a root-of-unity eigenvalue; BF groups degenerate")
            tower = _towers[self.A.rows] = _Tower()
        object.__setattr__(self, "_tower", tower)

    @cached_property
    def M(self) -> IntMatrix:
        m = self._tower.M.get(self.k)
        if m is None:
            m = self._tower.M[self.k] = self.A ** self.k - IntMatrix.identity(self.A.dim)
        return m

    @cached_property
    def _snf(self):
        form = self._tower.snf.get(self.k)
        if form is None:
            form = self._tower.snf[self.k] = snf(self.M)
        return form

    @cached_property
    def diagonal(self) -> tuple:
        return self._snf.diagonal

    @cached_property
    def invariant_factors(self) -> tuple:
        return self._snf.invariant_factors

    @cached_property
    def order(self) -> int:
        n = 1
        for d in self.diagonal:
            n *= d
        det = abs(self.M.det())
        if n != det:
            raise RuntimeError("order mismatch between SNF and determinant")
        return n

    @cached_property
    def _psi_map(self) -> tuple:
        """(W, L) with Psi(e) = W e.r / L mod 1: M^-1 = V D^-1 U, so
        W = V diag(L / d_i) with L = d_n, the exponent of BF_k."""
        diag = self.diagonal
        L = diag[-1]
        return IntMatrix(tuple(tuple(v * (L // d) for v, d in zip(row, diag))
                               for row in self._snf.V.rows)), L

    @cached_property
    def _coords(self) -> dict:
        """Numerator n -> Fraction(n, L), filled as psi meets each n, so each
        coordinate Fraction of this group is built once; at most L entries."""
        return {}

    @cached_property
    def _reducer(self) -> tuple:
        """(row i of U, d_i) for each coordinate i of a class."""
        return tuple(zip(self._snf.U.rows, self.diagonal))

    def reduce(self, n) -> "BFElement":
        """The class of the integer vector n: U n reduced modulo the diagonal."""
        if len(n) != len(self._reducer):
            raise DimensionMismatch("vector length mismatch")
        return self._classes([[_integer(x, "coordinate") for x in n]])[0]

    def _classes(self, vectors) -> list:
        """reduce without its checks, for int vectors of the right length
        that the package built itself, one coordinate over all of them at
        a time."""
        coords = [[sum(map(mul, row, n)) % d for n in vectors] for row, d in self._reducer]
        return [_bf_element(self, r) for r in zip(*coords)]


@dataclass(frozen=True)
class BFElement:
    group: BFGroup
    r: tuple

    def __post_init__(self):
        if len(self.r) != len(self.group.diagonal):
            raise DimensionMismatch("coordinate count differs from the group's rank")
        object.__setattr__(self, "r", tuple(_integer(x, "coordinate") for x in self.r))
        for x, d in zip(self.r, self.group.diagonal):
            if not (0 <= x < d):
                raise ValueError("coordinates outside the SNF box")

    def __str__(self) -> str:
        return "[" + ", ".join(str(x) for x in self.r) + "]"


def _bf_element(group: BFGroup, r: tuple) -> BFElement:
    """A BFElement from int coordinates already reduced into the SNF box,
    built without the constructor's box check."""
    e = object.__new__(BFElement)
    object.__setattr__(e, "group", group)
    object.__setattr__(e, "r", r)
    return e


def psi(e: BFElement) -> TorusPoint:
    """The monomorphism BF_k -> T^b, n + Gamma |-> (A^k - I)^-1 n mod 1.

    Well-defined because shifting n by (A^k - I) z moves the image by the
    integer vector z. Injective under the standing hypothesis, so equality
    of Psi images is the canonical equality test in the direct limit.
    """
    w, den = e.group._psi_map
    coords, r = e.group._coords, e.r
    out = []
    for row in w.rows:
        x = sum(map(mul, row, r)) % den
        c = coords.get(x)
        if c is None:
            c = coords[x] = fraction(x, den)
        out.append(c)
    return _torus_point(tuple(out))


def upsilon(e: BFElement, j: int) -> BFElement:
    """The direct-limit bonding map BF_i -> BF_j for i | j: the class of BF_j
    with the same Psi image as e.

    x = W e.r mod L are the numerators of Psi(e) over L (see psi). The
    point x / L is fixed by A^i, so by A^j, and (A^j - I) x / L is an
    integer vector whose class in BF_j has Psi image x / L again.

    >>> e = BFGroup(IntMatrix(((3, 1), (1, 3))), 1).reduce((1, 0))
    >>> print(e, upsilon(e, 2), psi(e), psi(upsilon(e, 2)))
    [0, 2] [1, 5] (2/3, 2/3) (2/3, 2/3)
    """
    i, j = e.group.k, _integer(j, "j")
    if j % i != 0:
        raise NotDivisible(f"{i} does not divide {j}")
    target = BFGroup(e.group.A, j)
    w, den = e.group._psi_map
    x = [sum(map(mul, row, e.r)) % den for row in w.rows]
    n = [divmod(sum(map(mul, row, x)), den) for row in target.M.rows]
    if any(rem for _, rem in n):
        raise RuntimeError("upsilon: (A^j - I) Psi(e) is not an integer vector")
    return target.reduce([q for q, _ in n])


def enumerate_fixed(a: IntMatrix, k: int, budget: int | None = None):
    """All points of T^b fixed by the k-th power of the toral map, sorted.

    These are exactly the Psi images of BF_k(A); there are |det(A^k - I)|
    of them, and with a budget BudgetExceeded is raised before the Smith
    form is built when that count passes it. Every coordinate is a
    numerator over L (see BFGroup._psi_map), so the SNF box is walked on
    numerators, j steps along axis i adding j times column i of W mod L; the
    numerator tuples sort in the order of the points, and L is the
    exponent of BF_k, so the Fraction table has no more entries than there
    are points.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    g = BFGroup(a, k)
    if budget is not None:
        size = abs(g.M.det())
        if size > budget:
            raise BudgetExceeded(f"{size} torus fixed points exceed budget {budget}")
    w, den = g._psi_map
    steps = w.transpose().rows
    nums, dens = [(0,) * a.dim], (den,) * a.dim
    for step, d in zip(steps, g.diagonal):
        moves = [tuple(j * s for s in step) for j in range(d)]
        nums = [tuple(map(mod, map(add, v, move), dens)) for v in nums for move in moves]
    nums.sort()
    frac = [fraction(n, den) for n in range(den)]
    return [_torus_point(tuple(map(frac.__getitem__, v))) for v in nums]
