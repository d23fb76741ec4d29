"""Rotation sets for tight maps whose abelianization is the identity.

Each occurrence of a generator inside an image word lifts to a translated
copy of that edge in the abelian cover; the translations form a matrix of
multisets over the group ring. Minimal (vertex-simple) loops in that data
carry rational rotation vectors whose convex hull is the rotation set
approximation the toolkit reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DimensionMismatch, NontrivialHomologyAction, NotEigenvectorOne
from .graphmap import PeriodicPoint, TightMap
from .intmat import IntMatrix


@dataclass(frozen=True)
class GroupRingMatrix:
    """entries[i][j] = occurrences of generator i^+- in psi(a_j), each as
    (slot index, Slot); the Slot's offset is the occurrence's translation.

    Column j holds d_j occurrences in total, one per letter of psi(a_j).
    """

    rank: int
    entries: tuple

    def occurrences(self, i: int, j: int):
        return self.entries[i][j]

    def column_cardinality(self, j: int) -> int:
        return sum(len(self.entries[i][j]) for i in range(self.rank))


@dataclass(frozen=True)
class Loop:
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


@dataclass(frozen=True)
class RotationSetReport:
    loop_vectors: tuple        # ((period, vector), ...) sorted
    hull_vertices: tuple
    fixed_point_vectors: tuple
    period2_vectors: tuple


def transition_matrix(m: TightMap) -> GroupRingMatrix:
    """The lifted-occurrence matrix; requires abelianization = identity."""
    b = m.rank
    if m.A != IntMatrix.identity(b):
        raise NontrivialHomologyAction("rotation sets need abelianization = I")
    entries = [[[] for _ in range(b)] for _ in range(b)]
    for j in range(b):
        for i, slot in enumerate(m.slots[j]):
            entries[slot.generator][j].append((i, slot))
    g = GroupRingMatrix(rank=b, entries=tuple(tuple(tuple(col) for col in row) for row in entries))
    for j in range(b):
        if g.column_cardinality(j) != m.speeds[j]:
            raise RuntimeError("column cardinality must equal the edge speed")
    return g


def minimal_loops(g: GroupRingMatrix, budget: int = 200000):
    """All vertex-simple loops (no repeated edge-vertex), canonical and sorted.

    These are exactly the loops with no proper sub-loop. Vertex orders are
    walked depth-first from each loop's least vertex along existing arcs
    only, so each loop comes out once, already in its canonical rotation.
    An order only grows by a vertex that can still get back to its first
    vertex through vertices above it (one reverse search from each first
    vertex), so no branch of the walk is cut off from every loop.
    The budget counts loops as the walk finds them; BudgetExceeded is
    raised rather than returning a truncated list.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    loops = []

    def steps(src, dst):
        return [(src, dst, slot.offset, i) for i, slot in g.occurrences(dst, src)]

    for first in range(g.rank):
        back, todo = {first}, [first]
        while todo:
            dst = todo.pop()
            for src in range(first + 1, g.rank):
                if src not in back and g.occurrences(dst, src):
                    back.add(src)
                    todo.append(src)
        # each entry: a vertex order from first, with the slot choices of its arcs
        stack = [((first,), [])]
        while stack:
            order, opts = stack.pop()
            last = order[-1]
            for combo in itertools.product(*opts, steps(last, first)):
                if len(loops) == budget:
                    raise BudgetExceeded(f"loop enumeration exceeded budget {budget}")
                loops.append(Loop(combo))
            for nxt in range(first + 1, g.rank):
                if nxt in back and nxt not in order:
                    arc = steps(last, nxt)
                    if arc:
                        stack.append((order + (nxt,), opts + [arc]))
    return sorted(loops, key=lambda l: (l.length, l.transitions))


def _hull_2d(points):
    """Monotone chain over exact rationals; returns CCW vertices, no collinear."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _feasible_combination(target, points):
    """Exact feasibility of target in conv(points) via phase-1 simplex."""
    if not points:
        return False
    b = len(target)
    m = b + 1  # equality rows: coordinates plus sum-to-one
    n = len(points)
    # rows: sum_i lam_i * p_i = target ; sum lam = 1 ; lam >= 0
    rows = [[Fraction(p[c]) for p in points] for c in range(b)] + [[Fraction(1)] * n]
    rhs = [Fraction(t) for t in target] + [Fraction(1)]
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-x for x in rows[r]]
            rhs[r] = -rhs[r]
    # tableau with artificial basis
    tab = [rows[r] + [Fraction(int(i == r)) for i in range(m)] + [rhs[r]] for r in range(m)]
    basis = [n + r for r in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for r in range(m):
        for c in range(n + m + 1):
            cost[c] += tab[r][c]
    total = n + m
    while True:
        # Bland's rule, real variables only (artificials never re-enter)
        enter = None
        for c in range(n):
            if cost[c] > 0:
                enter = c
                break
        if enter is None:
            break
        ratios = [(tab[r][total] / tab[r][enter], r) for r in range(m) if tab[r][enter] > 0]
        if not ratios:
            break
        _, leave = min(ratios, key=lambda x: (x[0], basis[x[1]]))
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for r in range(m):
            if r != leave and tab[r][enter] != 0:
                f = tab[r][enter]
                tab[r] = [x - f * y for x, y in zip(tab[r], tab[leave])]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter
    return cost[total] == 0


def _hull_general(points):
    """Extreme points in any dimension but 1 and 2, by exact LP filtering."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return tuple(pts)
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not _feasible_combination(p, others):
            out.append(p)
    return tuple(out)


def hull_vertices(points):
    if not points:
        return ()
    dim = len(next(iter(points)))
    if dim == 2:
        return _hull_2d(points)
    if dim == 1:
        pts = sorted(set(points))
        return (pts[0],) if len(pts) == 1 else (pts[0], pts[-1])
    return _hull_general(points)


def periodic_rotation_vector(m: TightMap, p: PeriodicPoint) -> tuple:
    """Translation per unit time of a periodic point; needs abelianization I."""
    if m.A != IntMatrix.identity(m.rank):
        raise NontrivialHomologyAction("rotation vectors need abelianization = I")
    return tuple(Fraction(x, p.period) for x in p.translation)


def eigen_rotation_number(m: TightMap, p: PeriodicPoint, v) -> Fraction:
    """<v, translation>/period for an exact fixed vector of A^T."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != m.rank:
        raise DimensionMismatch("vector length mismatch")
    at = m.A.transpose()
    if at.apply(v) != v:
        raise NotEigenvectorOne("v is not fixed by the transpose of the abelianization")
    return sum(x * y for x, y in zip(v, p.translation)) / p.period


def point_in_hull(p, hull) -> bool:
    """Exact membership of a point in the convex hull of the given vertices,
    in any dimension; an empty hull contains nothing."""
    return _feasible_combination(p, list(hull))


def rotation_set(m: TightMap, budget: int = 200000) -> RotationSetReport:
    """Minimal-loop rotation vectors, their exact hull, and the period-1 and
    period-2 sublists."""
    g = transition_matrix(m)
    loops = minimal_loops(g, budget=budget)
    loop_vecs = sorted((l.length, l.rotation_vector()) for l in loops)
    hull = hull_vertices([v for _, v in loop_vecs])
    fixed = sorted({v for p, v in loop_vecs if p == 1})
    per2 = sorted({v for p, v in loop_vecs if p == 2})
    return RotationSetReport(loop_vectors=tuple(loop_vecs), hull_vertices=hull,
                             fixed_point_vectors=tuple(fixed), period2_vectors=tuple(per2))
