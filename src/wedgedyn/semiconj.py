"""The Franks semiconjugacy beta: exact breakpoint values, tail bounds,
Holder exponents, and injectivity certification by symbolic segment-pair
tracking in the abelian cover.

For an expanding map, the points of an edge that phi^k sends to the vertex
end the letters of unreduced psi^k, a letter with ancestor speeds
d_0..d_(k-1) being 1/(d_0...d_(k-1)) wide; beta there is A^-k n on the
nose, n the lattice point reached. Everything else is bounded by the
geometric tail.

The certifier tracks pairs of graphmap.Charts, stepped by TightMap.advance,
and decides touching, preimage overlap and witnesses on integers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import AdaptedNormUnavailable, BudgetExceeded, NotExpanding
from .graphmap import Chart, TightMap
from .intmat import _at_least, fraction, rat_inverse


@dataclass(frozen=True)
class BetaApproximation:
    """Exact beta values at the level-k breakpoints of every edge.

    M is the lcm of the speeds; t[e] holds edge e's breakpoints as int
    numerators over M^k, from 0 up to M^k (0, 1, ..., M^k when every speed
    is M), and values[e][i] the exact rational vector beta(t[e][i] / M^k).
    tail_bound bounds |beta - level-k normalized iterate| elsewhere; it is
    None when A has no certified norm yet (ROADMAP item 8).
    """

    map: TightMap
    level: int
    M: int
    t: tuple
    values: tuple
    tail_bound: "Fraction | None"


def beta_breakpoints(m: TightMap, k: int, budget: int | None = None) -> BetaApproximation:
    """Beta at every level-k breakpoint, by partial sums of the per-letter
    increments: a letter of generator g and sign s adds s * A^-k e_g.

    The letters of psi^k(e), the unreduced concatenation of image words
    (an inverse letter takes its image reversed and inverted), are streamed
    k rounds deep from the image table. Each carries its width over M^k,
    its parent's over the parent's speed; the breakpoints are the running
    sums of the widths, and phi^k carries the i-th onto the lattice point
    reached after i letters, whose partial sum, over the denominator of
    A^-k, is exact.

    The table is built one edge at a time: the edge's integer numerator
    columns, then an intmat.fraction for each numerator that no earlier
    edge met (so the edges share one Fraction per distinct numerator),
    then the edge's rows. The columns are dropped before the next edge's
    letters are streamed.

    The table has rank + 1^T T^k 1 rows (TightMap.letter_counts); with a
    budget, BudgetExceeded is raised before psi^k is built when that count
    passes it.
    """
    # level 0 is the edge itself (tau_0 is the shadowing constant)
    k = _at_least(k, "k", 0)
    if budget is not None:
        budget = _at_least(budget, "budget", 0)
    if not m.spectral.is_expanding:
        raise NotExpanding("beta needs an expanding abelianization")
    # A is invertible, so every generator occurs in some image word and the
    # row count never falls as j grows: any() stops early on a large k
    if budget is not None and any(m.rank + sum(level) > budget
                                  for level in itertools.islice(m.letter_counts(), k + 1)):
        raise BudgetExceeded(f"more than {budget} beta rows at level {k}")
    big_m = math.lcm(*m.speeds)
    scale = big_m ** k
    ainv, den = rat_inverse(m.A ** k)
    # letter (g, s) is code 2g + (s < 0), so code ^ 1 is its inverse;
    # table[code] is the letter's image, steps[i][code] its coordinate-i step
    table = []
    for img in m.endo.images:
        image = tuple(2 * l.generator + (l.sign < 0) for l in img)
        table += [image, tuple(c ^ 1 for c in reversed(image))]
    steps = [tuple(s * x for x in r for s in (1, -1)) for r in ainv.rows]
    ts, rows, frac = [], [], {}
    for e in range(m.rank):
        word, widths = [2 * e], [scale]
        for _ in range(k):
            images = list(map(table.__getitem__, word))
            ds = list(map(len, images))
            widths = itertools.chain.from_iterable(  # lazy: only t holds widths
                map(itertools.repeat, map(operator.floordiv, widths, ds), ds))
            word = list(itertools.chain.from_iterable(images))
        t = tuple(itertools.accumulate(widths, initial=0))
        ts.append(next((u for u in ts if u == t), t))  # equal columns share one tuple
        if t[-1] != scale:
            raise RuntimeError("the letter widths must sum to M^k")
        cols = [list(itertools.accumulate(map(st.__getitem__, word), initial=0))
                for st in steps]
        if [c[-1] for c in cols] != [den * (i == e) for i in range(m.rank)]:
            raise RuntimeError("edge endpoint must telescope to the basis vector")
        # a Fraction only for the numerators that no earlier edge met
        new = set(itertools.filterfalse(frac.__contains__, itertools.chain.from_iterable(cols)))
        frac.update(zip(new, map(fraction, new, itertools.repeat(den))))
        rows.append(tuple(zip(*(map(frac.__getitem__, c) for c in cols))))
        del cols
    try:
        tau = tail_bound(m, k)
    except AdaptedNormUnavailable:
        tau = None
    return BetaApproximation(map=m, level=k, M=big_m, t=tuple(ts), values=tuple(rows),
                             tail_bound=tau)


def tail_bound(m: TightMap, k: int) -> Fraction:
    """tau_k = delta(f) / lambda^k; tau_0 is the shadowing constant itself."""
    k = _at_least(k, "k", 0)
    sr = m.sigma_report()
    return sr.delta / sr.lam ** k


def holder_bound(m: TightMap) -> Fraction:
    """A rational Holder exponent for beta: min(log lambda / log L, 1).

    Exact when the log ratio is rational (integer-power certificate),
    otherwise a lower bound (so still an exponent) from a Stern-Brocot walk
    on exact comparisons of L^p with lambda^q. It stops once its bracket is
    narrower than 1e-7 or lambda^q would pass 2^19 bits, so the bound is
    within 1e-6 unless the ratio lies very near a fraction of small
    denominator (a modulus such as 2 or sqrt(2) certified from below).
    """
    if not m.spectral.is_expanding:
        raise NotExpanding("Holder bound needs an expanding abelianization")
    lam = m.spectral.lambda_lower
    big_l = max(m.speeds)
    if lam >= big_l:
        return Fraction(1)

    def cmp_ratio(p, q):
        # sign of p/q - log(lam)/log(L): L^p against lam^q, on integers
        lhs, rhs = big_l ** p * lam.denominator ** q, lam.numerator ** q
        return (lhs > rhs) - (lhs < rhs)

    # hi - lo = 1 / (lo_q hi_q); a run of same-sign steps is galloped
    lo, hi = (0, 1), (1, 1)
    qmax = 2 ** 19 // lam.numerator.bit_length()  # lam > 1: its larger part
    while lo[1] * hi[1] <= 10 ** 7 and lo[1] + hi[1] <= qmax:
        c = cmp_ratio(lo[0] + hi[0], lo[1] + hi[1])
        if c == 0:
            return Fraction(lo[0] + hi[0], lo[1] + hi[1])
        (ep, eq), (op, oq) = (lo, hi) if c < 0 else (hi, lo)
        cap = min(-(-(10 ** 7 // oq + 1 - eq) // oq), (qmax - eq) // oq)
        j, step = 1, 1
        while step:
            if j + step <= cap and cmp_ratio(ep + (j + step) * op, eq + (j + step) * oq) == c:
                j, step = j + step, 2 * step
            else:
                step //= 2
        end = (ep + j * op, eq + j * oq)
        lo, hi = (end, hi) if c < 0 else (lo, end)
    return Fraction(*lo)


# ---------------------------------------------------------------------------
# injectivity certification


@dataclass(frozen=True)
class InjectivityCertificate:
    """Outcome of the shadowing-pair search.

    status is CERTIFIED_INJECTIVE, NOT_INJECTIVE (then witness holds two
    distinct cover points with exactly equal lifted images, hence equal
    beta), or UNKNOWN (depth budget exhausted).
    """

    status: str
    depth: int
    delta: Fraction
    witness: "tuple | None"
    norm: str


def _far_gate(norm, theta2):
    """far(e1, n1, e2, n2): whether the unit axis segments n1 + [0,1] e1 and
    n2 + [0,1] e2 lie more than theta apart in the norm, where theta2 =
    theta^2. Exact and in integers: norm.gap2 of the relative position
    (e1, e2, n1 - n2) is compared with theta2 as a (num, den) pair.
    """
    bound, tden = theta2.numerator, theta2.denominator

    def far(e1, n1, e2, n2):
        num, den = norm.gap2(e1, e2, tuple(map(operator.sub, n1, n2)))
        return num * tden > den * bound

    return far


def _touch(e1, n1, e2, n2):
    """'ident', the lattice point two distinct unit axis segments share, or
    None. The boxes n + [0, 1] e meet iff their lower corners' maximum lies
    below both upper corners, and then two distinct segments meet there."""
    if e1 == e2 and n1 == n2:
        return "ident"
    pt = tuple(map(max, n1, n2))
    for i, (x, a, b) in enumerate(zip(pt, n1, n2)):
        if x - a > (i == e1) or x - b > (i == e2):
            return None
    return pt


def _preimages_intersect(p: Chart, q: Chart) -> bool:
    """Whether the closed original pieces of two charts meet, on integers:
    scaled by |alpha|, a piece's parameter interval is [lo, lo + 1]."""
    ap, aq = abs(p.alpha), abs(q.alpha)
    plo = -p.beta if p.alpha > 0 else p.beta - 1
    qlo = -q.beta if q.alpha > 0 else q.beta - 1
    for i, (x, y) in enumerate(zip(p.o_base, q.o_base)):
        a_lo = x * ap + (plo if i == p.o_edge else 0)
        b_lo = y * aq + (qlo if i == q.o_edge else 0)
        if (a_lo * aq > (b_lo + (i == q.o_edge)) * ap
                or b_lo * ap > (a_lo + (i == p.o_edge)) * aq):
            return False
    return True


def _same_origin(p: Chart, u: int, q: Chart, v: int, den: int = 1) -> bool:
    """Whether p carries to the parameter u / den the original point that q
    carries to v / den: on integers, as coordinates over den * alpha."""
    for i, (x, y) in enumerate(zip(p.o_base, q.o_base)):
        a = x * den * p.alpha + (u - p.beta * den if i == p.o_edge else 0)
        b = y * den * q.alpha + (v - q.beta * den if i == q.o_edge else 0)
        if a * q.alpha != b * p.alpha:
            return False
    return True


def _scan(cells):
    """One pass over a depth's cells: the witnesses (distinct original points
    that a cell carries to one current point, each pair sorted) and, when
    every cell is benign (its original pieces meet), the set of their
    translation-invariant germ signatures, else None."""
    witnesses, keys = [], set()
    for p, q in cells:
        t, key = _touch(p.edge, p.base, q.edge, q.base), None
        if t == "ident":
            key = ("ident", p.edge)
            if p != q:
                witnesses += [tuple(sorted((p.orig_point(Fraction(u, den)),
                                            q.orig_point(Fraction(u, den)))))
                              for u, den in ((0, 1), (1, 2), (1, 1))
                              if not _same_origin(p, u, q, u, den)]
        elif t is not None:
            up, uq = t[p.edge] - p.base[p.edge], t[q.edge] - q.base[q.edge]
            key = (p.edge, up, q.edge, uq, tuple(map(operator.sub, q.base, p.base)))
            if not _same_origin(p, up, q, uq):
                witnesses.append(tuple(sorted((p.orig_point(up), q.orig_point(uq)))))
        if keys is not None and _preimages_intersect(p, q):
            keys.add(key)
        else:
            keys = None
    if keys is not None and None in keys and not witnesses:
        raise RuntimeError("benign cell without touching segments")
    return witnesses, keys


def shadow_pairs(m: TightMap, depth: int = 12, norm: str = "adapted",
                 max_cells: int = 100000) -> InjectivityCertificate:
    """Search for distinct cover points whose orbits shadow each other.

    Pairs with equal beta stay within 2*delta of each other forever (each
    is within delta of the same toral orbit), so chart pairs whose
    segments separate beyond 2*delta are discarded. That gate depends only
    on the relative position (e1, e2, n1 - n2) of the two segments, and
    every position within 2*delta lies inside the depth-0 box of
    half-width w: ||v||_inf <= radius ||v|| bounds each |c_i| by
    radius * 2*delta + 1 < w. So the box pass decides every unordered
    position once, exactly and on integers (_far_gate; the gap of
    (e1, e2, c) is the gap of (e2, e1, -c)), the depth-0 cells come from
    the near positions, and every later depth only looks its positions up
    in that near set, through a move table (_near_children). Surviving
    exact coincidences with distinct preimages are non-injectivity
    witnesses. When every survivor is benign (preimage closures
    intersect) and the survivor germ-signature set repeats at consecutive
    depths, the self-similar regime forces any shadowing pair onto the
    diagonal: CERTIFIED_INJECTIVE.

    Every depth after the first examines at most max_cells * L^2 pairs,
    L the largest speed, and the depth-0 box of b^2 (2w + 1)^b pairs is
    held to the same budget before it is built.
    """
    depth = _at_least(depth, "depth", 0)
    max_cells = _at_least(max_cells, "max_cells", 0)
    sr = m.sigma_report(norm=norm)
    can_certify = min(m.speeds) >= 2
    cert = functools.partial(InjectivityCertificate, delta=sr.delta, norm=sr.norm.kind)
    near, cells = _depth0(m, sr, max_cells)
    _, prev_keys = _scan(cells)
    moves = {}
    for d in range(1, depth + 1):
        cells = _cells(_near_children(m, cells, near, moves), max_cells)
        witnesses, keys = _scan(cells)
        if witnesses:
            x, y = min(witnesses)
            if m.lift_iter(x, d) != m.lift_iter(y, d):
                raise RuntimeError("witness verification failed")
            return cert(status="NOT_INJECTIVE", depth=d, witness=(x, y))
        if can_certify and keys is not None and keys == prev_keys:
            return cert(status="CERTIFIED_INJECTIVE", depth=d, witness=None)
        prev_keys = keys
    return cert(status="UNKNOWN", depth=depth, witness=None)


def _depth0(m: TightMap, sr, max_cells):
    """The near set, every relative position (e1, e2, c) within 2*delta
    of the sigma report sr, and the depth-0 cells. BudgetExceeded before
    the box is built when its pair count passes max_cells * L^2."""
    nd, theta, b = sr.norm, 2 * sr.delta, m.rank
    w = int(nd.radius * theta) + 2
    box_pairs, bound = b * b * (2 * w + 1) ** b, max_cells * max(m.speeds) ** 2
    if box_pairs > bound:
        raise BudgetExceeded(f"depth-0 box of {box_pairs} segment pairs exceeds "
                             f"max_cells * L^2 = {bound}")
    far = _far_gate(nd, theta * theta)
    zero = (0,) * b
    near = set()
    for e1, e2 in itertools.combinations_with_replacement(range(b), 2):
        for c in itertools.product(range(1 - w, w), repeat=b):
            neg = tuple(map(operator.neg, c))
            if (e1 < e2 or c >= neg) and not far(e1, c, e2, zero):
                near.update(((e1, e2, c), (e2, e1, neg)))
    # near is closed under (e1, e2, c) -> (e2, e1, -c), so each near
    # position gives the box pair of an e2 segment at the origin and an e1
    # segment at c, whose position is the mirror (e2, e1, -c): every box
    # pair is near
    box = ((Chart(e2, zero, e2, zero, 1, 0), Chart(e1, c, e1, c, 1, 0)) for e1, e2, c in near)
    return near, _cells(box, max_cells)


def _near_children(m: TightMap, cells, near, moves):
    """The child pairs (advance(p)[i], advance(q)[j]) of every cell (p, q)
    whose relative position is in near, in the order of
    product(advance(p), advance(q)). The child's position
    (g_i, g_j, A c + off_i - off_j) depends only on the parent position
    (e1, e2, c), so moves, a dict the caller holds for one certifier run,
    maps each parent position to its slot pairs (i, j) with a near child,
    and only cells with a near child are advanced."""
    apply = m.A.apply
    # (e1, e2) -> (i, j, g_i, g_j, off_i - off_j) for every slot pair
    steps = {(e1, e2): [(i, j, s.generator, t.generator,
                         tuple(map(operator.sub, s.offset, t.offset)))
                        for i, s in enumerate(ss) for j, t in enumerate(ts)]
             for (e1, ss), (e2, ts) in itertools.product(enumerate(m.slots), repeat=2)}
    for p, q in cells:
        pos = (p.edge, q.edge, tuple(map(operator.sub, p.base, q.base)))
        ij = moves.get(pos)
        if ij is None:
            ac = apply(pos[2])
            ij = moves[pos] = [(i, j) for i, j, g1, g2, off in steps[pos[:2]]
                               if (g1, g2, tuple(map(operator.add, ac, off))) in near]
        if ij:
            ps, qs = m.advance(p), m.advance(q)
            for i, j in ij:
                yield ps[i], qs[j]


def _cells(pairs, max_cells):
    """The set of distinct chart pairs, each ordered (p, q) with p <= q.
    Raises BudgetExceeded as soon as more than max_cells are kept, before
    any witness search reads them."""
    cells = set()
    for p, q in pairs:
        cells.add((p, q) if p <= q else (q, p))
        if len(cells) > max_cells:
            raise BudgetExceeded(f"segment-pair cells exceeded {max_cells}")
    return cells
