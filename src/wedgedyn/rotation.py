"""Rotation sets for tight maps whose abelianization is the identity.

Slot i of psi(a_j) lifts to a translated copy of its generator's edge in
the abelian cover, so the slot table is a graph on the edges: an arc from
a_j to that generator per slot, weighted by the slot's lattice offset.
Minimal (vertex-simple) loops of that graph carry rational rotation
vectors whose convex hull is the rotation set approximation the toolkit
reports. The hull is exact in any dimension and takes numbers.Rational
coordinates only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import BudgetExceeded, DimensionMismatch, NontrivialHomologyAction
from .graphmap import TightMap
from .intmat import IntMatrix, _at_least, _rational, bareiss_pivot


class Loop(NamedTuple):
    """A cyclic sequence of transitions (from_edge, to_edge, translation, slot).

    Stored in canonical form: the lexicographically least rotation.
    """

    transitions: tuple

    @property
    def length(self) -> int:
        return len(self.transitions)

    def rotation_vector(self) -> tuple:
        b = len(self.transitions[0][2])
        total = [0] * b
        for _, _, tr, _ in self.transitions:
            for i, x in enumerate(tr):
                total[i] += x
        return tuple(Fraction(x, self.length) for x in total)


class RotationSetReport(NamedTuple):
    loop_vectors: tuple        # ((period, vector), ...) sorted
    hull_vertices: tuple
    fixed_point_vectors: tuple
    period2_vectors: tuple


def minimal_loops(m: TightMap, budget: int = 200000):
    """All vertex-simple loops (no repeated edge-vertex), canonical and sorted.

    The arc src -> dst of m.slots holds one transition (src, dst, offset, i)
    per slot i of psi(src) whose generator is dst; nothing here needs
    A = I. These are exactly the loops with no proper sub-loop. Vertex
    orders are walked depth-first from each loop's least vertex along
    existing arcs only, so each loop comes out once, already in its
    canonical rotation.
    An order only grows by a vertex that can still get back to its first
    vertex through vertices above it (one reverse search from each first
    vertex), so no branch of the walk is cut off from every loop.
    The budget counts loops as the walk finds them; BudgetExceeded is
    raised rather than returning a truncated list.
    """
    budget = _at_least(budget, "budget", 0)
    b = m.rank
    arcs = [[[] for _ in range(b)] for _ in range(b)]
    for src, slots in enumerate(m.slots):
        for i, slot in enumerate(slots):
            arcs[src][slot.generator].append((src, slot.generator, slot.offset, i))
    loops = []
    for first in range(b):
        back, todo = {first}, [first]
        while todo:
            dst = todo.pop()
            for src in range(first + 1, b):
                if src not in back and arcs[src][dst]:
                    back.add(src)
                    todo.append(src)
        # each entry: a vertex order from first, with the slot choices of its arcs
        stack = [((first,), [])]
        while stack:
            order, opts = stack.pop()
            last = order[-1]
            for combo in itertools.product(*opts, arcs[last][first]):
                if len(loops) == budget:
                    raise BudgetExceeded(f"loop enumeration exceeded budget {budget}")
                loops.append(Loop(combo))
            for nxt in range(first + 1, b):
                if nxt in back and nxt not in order and arcs[last][nxt]:
                    stack.append((order + (nxt,), opts + [arcs[last][nxt]]))
    return sorted(loops, key=lambda l: (l.length, l.transitions))


def _hull_2d(points):
    """Monotone chain over exact rationals; returns CCW vertices, no collinear."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        # one monotone chain of strict left turns, less its last point, which
        # the other chain starts from
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return tuple(chain(pts) + chain(reversed(pts)))


def _feasible_combination(target, points):
    """Exact feasibility of target in conv(points) by a phase-1 simplex on
    integers: the rows sum_i lam_i p_i = target and sum_i lam_i = 1, as
    numerators over one common denominator, start from the artificial
    basis, and intmat.bareiss_pivot keeps the tableau (cost row included)
    det B times its rational form. Every pivot is positive, so det B stays
    positive and every entry has its rational value's sign. Bland's rule
    enters real variables only; the artificial cost ends at 0 iff target
    is feasible. hull_vertices has checked the lengths and the coordinates."""
    if not points:
        return False
    den = lcm(*(x.denominator for q in (target, *points) for x in q))
    n, m = len(points), len(target) + 1
    # one row per coordinate, points then target, and the sum-to-one row
    rows = [[x.numerator * (den // x.denominator) for x in q] for q in zip(*points, target)]
    rows.append([1] * (n + 1))
    tab = []
    for r, row in enumerate(rows):
        sign = -1 if row[n] < 0 else 1
        tab.append([sign * x for x in row[:n]] + [int(i == r) for i in range(m)] + [sign * row[n]])
    tab.append([sum(col) for col in zip(*tab)])
    basis = [n + r for r in range(m)]
    total, det = n + m, 1
    while (enter := next((c for c in range(n) if tab[m][c] > 0), None)) is not None:
        # least ratio rhs / entry over the positive entries, compared crosswise,
        # ties to the least basic variable; one exists, as the cost is >= 0
        leave = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0 and (leave is None or (tab[r][total] * tab[leave][enter], basis[r])
                          < (tab[leave][total] * a, basis[leave])):
                leave = r
        det = bareiss_pivot(tab, leave, enter, det)
        basis[leave] = enter
    return tab[m][total] == 0


def _hull_general(points):
    """Extreme points in any dimension, by exact LP filtering: each point is
    tested against the vertices found so far and the points not yet tested.
    A point found interior is never a vertex, so leaving it out does not
    change the hull that the later points are tested against."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        if not _feasible_combination(p, out + pts[i + 1:]):
            out.append(p)
    return tuple(out)


def hull_vertices(points):
    """The vertices of the convex hull of points of one length, each
    coordinate a numbers.Rational, which intmat._rational makes a Fraction:
    a monotone chain in 2-D, min and max in 1-D, the LP filter above."""
    if not points:
        return ()
    dim = len(next(iter(points)))
    if any(len(p) != dim for p in points):
        raise DimensionMismatch("points differ in length")
    points = [tuple(_rational(x, "hull coordinate") for x in p) for p in points]
    if dim == 2:
        return _hull_2d(points)
    if dim == 1:
        pts = sorted(set(points))
        return (pts[0],) if len(pts) == 1 else (pts[0], pts[-1])
    return _hull_general(points)


def rotation_set(m: TightMap, budget: int = 200000) -> RotationSetReport:
    """Minimal-loop rotation vectors, their exact hull, and the period-1 and
    period-2 sublists; needs abelianization = I."""
    if m.A != IntMatrix.identity(m.rank):
        raise NontrivialHomologyAction("rotation sets need abelianization = I")
    loops = minimal_loops(m, budget=budget)
    loop_vecs = sorted((l.length, l.rotation_vector()) for l in loops)
    hull = hull_vertices([v for _, v in loop_vecs])
    fixed = sorted({v for p, v in loop_vecs if p == 1})
    per2 = sorted({v for p, v in loop_vecs if p == 2})
    return RotationSetReport(loop_vectors=tuple(loop_vecs), hull_vertices=hull,
                             fixed_point_vectors=tuple(fixed), period2_vectors=tuple(per2))
