"""Bowen-Franks groups BF_k(A) = Z^b / (A^k - I) Z^b and their direct limit.

The standing hypothesis (no eigenvalue of A is a root of unity) makes every
A^k - I invertible, so each BF_k is finite of order |det(A^k - I)| and the
monomorphism Psi embeds it into the rational points of the torus fixed by
the k-th power of the induced toral map.

One Smith form U (A^k - I) V = D serves each level: cosets reduce U n
modulo the diagonal, and Psi is read off (A^k - I)^-1 = V D^-1 U. The
bonding maps of the direct limit go through Psi as well: upsilon sends a
class of BF_i to the class of BF_j with the same torus point. While a
group of A lives, a new BFGroup(A, j) skips the hypothesis check and reads
level j's one record in A's tower (_Tower), which dies with the last group.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, mod, mul

from .errors import BudgetExceeded, DimensionMismatch, NotDivisible, RootOfUnitySpectrum
from .intmat import IntMatrix, _Record, _at_least, _integer, _rational, fraction, snf
from .polys import char_poly, has_root_of_unity_factor


class TorusPoint(_Record):
    """A point of T^b = (R/Z)^b with exact rational coordinates in [0, 1)."""

    __slots__ = __match_args__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(_rational(c, "torus coordinate") % 1
                                                 for c in coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _torus_point(coords: tuple) -> TorusPoint:
    """A TorusPoint from Fractions already reduced into [0, 1), built
    without the constructor's per-coordinate reduction."""
    p = object.__new__(TorusPoint)
    object.__setattr__(p, "coords", coords)
    return p


class _Level:
    """BF_k(A)'s tables, shared by every group of the level: ak = A^k,
    taken as below.ak * A when the level below is given, and M = A^k - I;
    coords, numerator n -> Fraction(n, L), filled by psi and enumerate_fixed
    so each Fraction is built once; and, built on first use, the Smith form
    of M, the group order and the Psi map. It refers to neither its tower,
    the level below nor a group."""

    def __init__(self, a: IntMatrix, k: int, below: _Level | None = None):
        self.ak = a ** k if below is None else below.ak * a
        self.M = self.ak - IntMatrix.identity(a.dim)
        self.coords = {}

    @cached_property
    def snf(self):
        return snf(self.M)

    @cached_property
    def order(self) -> int:
        """|det(A^k - I)|: the product of the diagonal, which snf checks
        against the determinant."""
        return prod(self.snf.diagonal)

    @cached_property
    def psi_map(self) -> tuple:
        """(W, L) with Psi(e) = W e.r / L mod 1: M^-1 = V D^-1 U, so
        W = V diag(L / d_i) with L = d_n, the exponent of BF_k."""
        diag = self.snf.diagonal
        L = diag[-1]
        return IntMatrix(tuple(tuple(v * (L // d) for v, d in zip(row, diag))
                               for row in self.snf.V.rows)), L


class _Tower(dict):
    """Level k -> the _Level of BF_k(A), shared by the groups of one A that
    passed the root-of-unity check; held weakly, and by each group."""

    __slots__ = ("__weakref__",)


_towers = weakref.WeakValueDictionary()  # A.rows -> the _Tower of A's live groups


class BFGroup(_Record):
    """BF_k(A), with coset canonicalization through the Smith form of
    A^k - I; equality, hash and repr read A and k, not the tower or level."""

    __slots__ = ("A", "k", "_tower", "_level")
    __match_args__ = ("A", "k")

    def __init__(self, A: IntMatrix, k: int):
        k = _at_least(k, "k", 1)
        tower = _towers.get(A.rows)
        if tower is None:
            if has_root_of_unity_factor(char_poly(A)):
                raise RootOfUnitySpectrum("A has a root-of-unity eigenvalue; BF groups degenerate")
            tower = _towers[A.rows] = _Tower()
        level = tower.get(k)
        if level is None:
            level = tower[k] = _Level(A, k, tower.get(k - 1))
        for name, value in zip(self.__slots__, (A, k, tower, level)):
            object.__setattr__(self, name, value)

    @property
    def M(self) -> IntMatrix:
        return self._level.M

    @property
    def diagonal(self) -> tuple:
        return self._level.snf.diagonal

    @property
    def invariant_factors(self) -> tuple:
        return self._level.snf.invariant_factors

    @property
    def order(self) -> int:
        return self._level.order

    def reduce(self, n) -> "BFElement":
        """The class of the integer vector n: U n reduced modulo the diagonal."""
        if len(n) != self.A.dim:
            raise DimensionMismatch("vector length mismatch")
        return self._classes([[_integer(x, "coordinate") for x in n]])[0]

    def _classes(self, vectors) -> list:
        """reduce without its checks, for int vectors of the right length
        that the package built itself, one coordinate over all of them at
        a time."""
        form = self._level.snf
        coords = [[sum(map(mul, row, n)) % d for n in vectors]
                  for row, d in zip(form.U.rows, form.diagonal)]
        return [_bf_element(self, r) for r in zip(*coords)]


class BFElement(_Record):
    __slots__ = __match_args__ = ("group", "r")

    def __init__(self, group: BFGroup, r: tuple):
        if len(r) != len(group.diagonal):
            raise DimensionMismatch("coordinate count differs from the group's rank")
        r = tuple(_integer(x, "coordinate") for x in r)
        for x, d in zip(r, group.diagonal):
            if not (0 <= x < d):
                raise ValueError("coordinates outside the SNF box")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "r", r)

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
    level = e.group._level
    (w, den), coords, r = level.psi_map, level.coords, e.r
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
    w, den = e.group._level.psi_map
    x = [sum(map(mul, row, e.r)) % den for row in w.rows]
    n = [divmod(sum(map(mul, row, x)), den) for row in target.M.rows]
    if any(rem for _, rem in n):
        raise RuntimeError("upsilon: (A^j - I) Psi(e) is not an integer vector")
    return target.reduce([q for q, _ in n])


def enumerate_fixed(a: IntMatrix, k: int, budget: int | None = None):
    """All points of T^b fixed by the k-th power of the toral map, sorted.

    These are exactly the Psi images of BF_k(A); there are |det(A^k - I)|
    of them, and with a budget BudgetExceeded is raised before the Smith
    form is built when that count passes it; M keeps its determinant, so
    the Smith form's certificate takes no second one. Every coordinate is a
    numerator over L (see _Level.psi_map), so the SNF box is walked on
    numerators, j steps along axis i adding j times column i of W mod L; the
    numerator tuples sort in the order of the points, and their Fractions
    come from the level's numerator table, which psi shares.
    """
    if budget is not None:
        budget = _at_least(budget, "budget", 0)
    g = BFGroup(a, k)
    if budget is not None:
        size = abs(g.M.det())
        if size > budget:
            raise BudgetExceeded(f"{size} torus fixed points exceed budget {budget}")
    level = g._level
    (w, den), frac = level.psi_map, level.coords
    nums, dens = [(0,) * a.dim], (den,) * a.dim
    for step, d in zip(w.transpose().rows, g.diagonal):
        moves = [tuple(j * s for s in step) for j in range(d)]
        nums = [tuple(map(mod, map(add, v, move), dens)) for v in nums for move in moves]
    nums.sort()
    frac.update((n, fraction(n, den)) for n in range(den) if n not in frac)
    return [_torus_point(tuple(map(frac.__getitem__, v))) for v in nums]
