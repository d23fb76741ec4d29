"""Test oracles that the library itself has no use for."""

import itertools
from fractions import Fraction

from wedgedyn import (
    BFElement,
    CoverPoint,
    DimensionMismatch,
    Loop,
    MapSpec,
    NotExpanding,
    TorusPoint,
    VERTEX,
    cover_point,
)
from wedgedyn.intmat import rat_inverse


def elements(g):
    """All elements of the BF group g, in lexicographic order of their SNF
    coordinates."""
    for r in itertools.product(*(range(d) for d in g.diagonal)):
        yield BFElement(g, r)


def phi_apply(a, p):
    """The toral endomorphism induced by the integer matrix a, applied once
    to the torus point p."""
    if a.dim != len(p.coords):
        raise DimensionMismatch("matrix and point dimensions differ")
    return TorusPoint(a.apply(p.coords))


def cover_from_coords(coords) -> CoverPoint:
    """Inverse of iota for points actually on the grid."""
    coords = [Fraction(c) for c in coords]
    frac_idx = [i for i, c in enumerate(coords) if c.denominator != 1]
    if len(frac_idx) > 1:
        raise ValueError(f"{tuple(coords)} is not on the cover grid")
    if not frac_idx:
        return CoverPoint(VERTEX, tuple(int(c) for c in coords))
    i = frac_idx[0]
    base = tuple(int(c) if j != i else (c.numerator // c.denominator) for j, c in enumerate(coords))
    t = coords[i] - base[i]
    return cover_point(i, t, base)


def deck(cp: CoverPoint, n) -> CoverPoint:
    """The deck translate of a cover point by the lattice vector n."""
    return CoverPoint(cp.point, tuple(x + int(y) for x, y in zip(cp.base, n)))


def displacement_set(m, k: int):
    """Distinct displacement classes of Fix(phi^k) in BF_k, sorted."""
    pts = m.periodic_points(k)
    classes = {p.displacement for p in pts if p.displacement is not None}
    return sorted(classes, key=lambda e: e.r)


def vectors(g, i: int, j: int):
    """The multiset of lattice vectors under entry (i, j) of the group-ring
    matrix g, as a sorted tuple."""
    return tuple(sorted(slot.offset for _, slot in g.entries[i][j]))


def canonical_loop(transitions) -> Loop:
    """The Loop of a cyclic transition sequence, in its canonical form: the
    lexicographically least rotation."""
    ts = tuple(transitions)
    return Loop(min(ts[r:] + ts[:r] for r in range(len(ts))))


def format_map(spec: MapSpec) -> str:
    """Canonical pretty-printed form; parse(format_map(s)) == [s]."""
    lines = [f"map {spec.name} rank {spec.rank} {{"]
    for i, word in enumerate(spec.rules):
        lines.append(f"  {chr(ord('a') + i)} -> {' '.join(word)} ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def kappa(m, letter, k: int):
    """The per-letter increment of beta at level k: sign * A^-k e_gen."""
    # level 0 is the edge itself (tau_0 is the shadowing constant)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not m.spectral.is_expanding:
        raise NotExpanding("kappa needs an expanding abelianization")
    ainv, den = rat_inverse(m.A ** k)
    return tuple(Fraction(letter.sign * r[letter.generator], den) for r in ainv.rows)
