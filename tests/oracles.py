"""Test oracles that the library itself has no use for."""

import functools
import itertools
import operator
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from wedgedyn import (
    BFElement,
    BudgetExceeded,
    CoverPoint,
    DimensionMismatch,
    Endomorphism,
    InjectivityCertificate,
    IntMatrix,
    Loop,
    MapSpec,
    NotDivisible,
    NotExpanding,
    TightMap,
    TorusPoint,
    VERTEX,
    Word,
    cover_point,
    rational_sqrt_upper,
)
from wedgedyn.intmat import rat_inverse
from wedgedyn.semiconj import _depth0, _scan
from wedgedyn.spectra import norm_data
from wedgedyn.words import Letter


def elements(g):
    """All elements of the BF group g, in lexicographic order of their SNF
    coordinates."""
    for r in itertools.product(*(range(d) for d in g.diagonal)):
        yield BFElement(g, r)


def representative(e):
    """An integer vector in the coset e: U^-1 e.r, with U^-1 the Bareiss
    inverse of the group's unimodular row transform U."""
    u_inv, den = rat_inverse(e.group._level.snf.U)
    assert den == 1
    return u_inv.apply(e.r)


def c_matrix(a: IntMatrix, i: int, j: int) -> IntMatrix:
    """C with A^j - I = C * (A^i - I), namely sum of A^(t*i) for t = 0..j/i - 1.

    Raises NotDivisible unless i divides j.
    """
    if i <= 0 or j <= 0 or j % i != 0:
        raise NotDivisible(f"{i} does not divide {j}")
    one = IntMatrix.identity(a.dim)
    step = a ** i
    acc = term = one
    for _ in range(j // i - 1):
        term = term * step
        acc = acc + term
    if acc * (step - one) != a ** j - one:
        raise RuntimeError("c_matrix internal identity failed")
    return acc


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


def vectors(m, i: int, j: int):
    """The lattice offsets of the slots of psi(a_j) whose generator is a_i,
    as a sorted tuple: the transitions from edge j to edge i."""
    return tuple(sorted(slot.offset for slot in m.slots[j] if slot.generator == i))


def feasible_combination_fractions(target, points) -> bool:
    """Exact feasibility of target in conv(points) by a phase-1 simplex on a
    Fraction tableau: the rows sum_i lam_i p_i = target and sum_i lam_i = 1
    unscaled, Bland's rule over the real variables."""
    if not points:
        return False
    b = len(target)
    m = b + 1
    n = len(points)
    rows = [[Fraction(p[c]) for p in points] for c in range(b)] + [[Fraction(1)] * n]
    rhs = [Fraction(t) for t in target] + [Fraction(1)]
    for r in range(m):
        if rhs[r] < 0:
            rows[r] = [-x for x in rows[r]]
            rhs[r] = -rhs[r]
    tab = [rows[r] + [Fraction(int(i == r)) for i in range(m)] + [rhs[r]] for r in range(m)]
    basis = [n + r for r in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for r in range(m):
        for c in range(n + m + 1):
            cost[c] += tab[r][c]
    total = n + m
    while True:
        enter = next((c for c in range(n) if cost[c] > 0), None)
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


def point_in_hull(p, hull) -> bool:
    """Exact membership of a point in the convex hull of the given vertices,
    in any dimension, by the Fraction-tableau simplex; an empty hull
    contains nothing."""
    return feasible_combination_fractions(p, list(hull))


def periodic_rotation_vector(m, p) -> tuple:
    """Translation per unit time of a periodic point of a map whose
    abelianization is the identity."""
    assert m.A == IntMatrix.identity(m.rank)
    return tuple(Fraction(x, p.period) for x in p.translation)


def eigen_rotation_number(m, p, v) -> Fraction:
    """<v, translation> / period for an exact vector v fixed by A^T."""
    assert m.A.transpose().apply(v) == tuple(v)
    return sum(Fraction(x) * y for x, y in zip(v, p.translation)) / p.period


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


@st.composite
def tight_maps(draw):
    """Maps of rank 2-3 in which the image of each generator g holds g two
    to four times among up to two other letters of either sign, shuffled
    and freely reduced; a's image always draws the inverse letter B. Most
    are expanding, many with a certified norm, and some with neither."""
    b = draw(st.integers(2, 3))
    letter = st.builds(Letter, st.integers(0, b - 1), st.sampled_from((1, -1)))
    images = []
    for g in range(b):
        extra = draw(st.lists(letter, max_size=1 if g == 0 else 2))
        letters = [Letter(g, 1)] * draw(st.integers(2, 4)) + extra
        if g == 0:
            letters.append(Letter(1, -1))
        word = Word(tuple(draw(st.permutations(letters))))
        assume(len(word) > 0)
        images.append(word)
    return TightMap(Endomorphism(b, tuple(images)))


def sigma_values(m):
    """Exact sigma at every breakpoint: list of (edge, t, vector)."""
    out = []
    for e in range(m.rank):
        d = m.speeds[e]
        ae = tuple(m.A.rows[i][e] for i in range(m.rank))
        for j in range(d + 1):
            t = Fraction(j, d)
            sig = tuple(Fraction(p) - t * a for p, a in zip(m.prefixes[e][j], ae))
            out.append((e, t, sig))
    return out


def fraction_q2(nd, vec) -> Fraction:
    """The squared norm of a rational vector in the norm nd, as one Fraction."""
    if nd.gram is None:
        x = max(abs(Fraction(x)) for x in vec)
        return x * x
    g, den2 = nd.gram
    return Fraction(sum(map(operator.mul, vec, g.apply(vec))), den2)


def sigma_report_fractions(m, norm: str = "adapted"):
    """(c_sup, q2max, c, delta, lam) of TightMap.sigma_report, from a
    Fraction sigma vector at every breakpoint."""
    nd = norm_data(m.spectral, norm)
    vals = sigma_values(m)
    c_sup = max(max(abs(x) for x in sig) for _, _, sig in vals)
    q2max = max(fraction_q2(nd, sig) for _, _, sig in vals)
    c = rational_sqrt_upper(q2max)
    return c_sup, q2max, c, c / (nd.lam - 1), nd.lam


def product_step(m, cells, near, max_cells):
    """One depth of the injectivity certifier by the plain product: every
    child pair of every cell, product(advance(p), advance(q)), kept (each
    ordered p <= q) when its relative position is in near. BudgetExceeded
    as soon as more than max_cells are kept."""
    kept = set()
    for p, q in cells:
        for pp, qq in itertools.product(m.advance(p), m.advance(q)):
            if (pp.edge, qq.edge, tuple(map(operator.sub, pp.base, qq.base))) in near:
                kept.add((pp, qq) if pp <= qq else (qq, pp))
                if len(kept) > max_cells:
                    raise BudgetExceeded(f"segment-pair cells exceeded {max_cells}")
    return kept


def shadow_depths(m, depth: int, norm: str = "adapted", max_cells: int = 100000):
    """The certificate that shadow_pairs(m, depth, norm, max_cells) should
    return, and the cell set of every depth it reaches, each depth stepped
    by product_step."""
    sr = m.sigma_report(norm=norm)
    cert = functools.partial(InjectivityCertificate, delta=sr.delta, norm=sr.norm.kind)
    near, cells = _depth0(m, sr, max_cells)
    depths = [cells]
    _, prev_keys = _scan(cells)
    for d in range(1, depth + 1):
        cells = product_step(m, cells, near, max_cells)
        depths.append(cells)
        witnesses, keys = _scan(cells)
        if witnesses:
            return cert(status="NOT_INJECTIVE", depth=d, witness=min(witnesses)), depths
        if min(m.speeds) >= 2 and keys is not None and keys == prev_keys:
            return cert(status="CERTIFIED_INJECTIVE", depth=d, witness=None), depths
        prev_keys = keys
    return cert(status="UNKNOWN", depth=depth, witness=None), depths
