"""Tight graph maps on a wedge of b circles and their abelian-cover lifts.

The wedge X has one vertex and edges a, b, ... each parametrized by [0, 1].
The universal abelian cover sits inside R^b as the grid of coordinate-axis
unit segments based at lattice points (for b = 2: Z x R union R x Z). A
tight map runs along the image word of each edge at constant speed, so all
lifted data is piecewise affine with rational breakpoints and exact
arithmetic goes through.

A Chart is a lifted edge that the lift of f^j lays over a piece of another,
with the composed integer slot map between them; TightMap.advance steps it
one letter slot on. The periodic-point census walks charts, and so does the
injectivity certifier in semiconj, in pairs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import add
from typing import NamedTuple

from .bf import BFElement, BFGroup, TorusPoint, psi
from .errors import BudgetExceeded, NotExpanding, RootOfUnitySpectrum
from .intmat import IntMatrix, _at_least, _integer, _rational, fraction
from .spectra import LipschitzNormData, norm_data, rational_sqrt_upper, spectral
from .words import Endomorphism


class GraphPoint(NamedTuple):
    edge: int
    t: Fraction


VERTEX = GraphPoint(0, Fraction(0))


def graph_point(edge: int, t) -> GraphPoint:
    """Canonical point of the wedge; both edge endpoints collapse to VERTEX."""
    edge = _at_least(edge, "edge", 0)
    t = _rational(t, "edge parameter")
    if not (0 <= t <= 1):
        raise ValueError(f"edge parameter {t} outside [0, 1]")
    if t == 0 or t == 1:
        return VERTEX
    return GraphPoint(edge, t)


class Slot(NamedTuple):
    """Slot i of an image word psi(e) of length d: the letter's generator and
    sign, the integer affine map u = mul * t + add that carries the slot's
    cylinder [i/d, (i+1)/d] of edge e onto the generator's edge (mul = d,
    add = -i for a positive letter; mul = -d, add = i + 1 for an inverse
    one), and the lattice offset of the cover segment it runs along (over
    an edge based at n, that segment is based at A n + offset)."""

    generator: int
    sign: int
    mul: int
    add: int
    offset: tuple


class CoverPoint(NamedTuple):
    """A point of the abelian cover: a graph point plus the lattice base of
    its edge (for the vertex, the lattice point itself)."""

    point: GraphPoint
    base: tuple


def cover_point(edge: int, t, base) -> CoverPoint:
    """The point at parameter t in [0, 1] of the lift of edge based at base;
    t = 1 is the vertex at base + e_edge, so 0 <= edge < len(base)."""
    edge = _at_least(edge, "edge", 0)
    t = _rational(t, "edge parameter")
    if not (0 <= t <= 1):
        raise ValueError(f"edge parameter {t} outside [0, 1]")
    base = tuple(_integer(x, "base coordinate") for x in base)
    if edge >= len(base):
        raise ValueError(f"edge {edge} outside a base of length {len(base)}")
    if t == 1:
        base = tuple(x + (1 if i == edge else 0) for i, x in enumerate(base))
        t = Fraction(0)
    if t == 0:
        return CoverPoint(VERTEX, base)
    return CoverPoint(GraphPoint(edge, t), base)


def iota(cp: CoverPoint) -> tuple:
    """Embed the cover into R^b: base + t * e_edge."""
    p, base = cp
    return tuple(Fraction(x) + (p.t if i == p.edge else 0) for i, x in enumerate(base))


class Chart(NamedTuple):
    """A full lifted edge (edge, base) that is the forward image of a piece
    of the lifted edge (o_edge, o_base), through the composed integer slot
    map u = alpha * t + beta from the original parameter t to the current
    parameter u in [0, 1]. Tuple order is the order charts sort in."""

    edge: int
    base: tuple
    o_edge: int
    o_base: tuple
    alpha: int
    beta: int

    def orig_point(self, u) -> CoverPoint:
        """The original point that the chart carries to parameter u."""
        return cover_point(self.o_edge, Fraction(u - self.beta, self.alpha), self.o_base)


class SigmaReport(NamedTuple):
    """Certified bounds on sigma(x) = iota(lift(f(x))) - A iota(lift(x)).

    c bounds sup||sigma|| in the operative norm (rational upper bound),
    c_sup is the exact sup-norm value, delta = c/(lam - 1) is the global
    shadowing constant, and q2max is the exact squared adapted-norm maximum
    used for threshold comparisons without any square roots.
    """

    c: Fraction
    c_sup: Fraction
    delta: Fraction
    lam: Fraction
    norm: LipschitzNormData
    q2max: Fraction


class PeriodicPoint(NamedTuple):
    """One point of Fix(phi^k), with its lifted translation vector.

    period is the k of the listing; least_period divides it. displacement
    and alpha_image are None when A fails the standing hypothesis (then the
    Bowen-Franks quotient is unavailable, but the raw translation is not).
    """

    point: GraphPoint
    period: int
    least_period: int
    itinerary: tuple
    translation: tuple
    displacement: "BFElement | None"
    alpha_image: "TorusPoint | None"


class TightMap:
    """A free-group endomorphism realized as a constant-speed graph map."""

    def __init__(self, endo: Endomorphism, name: str = ""):
        self.endo = endo
        self.name = name or "phi"
        for w in endo.images:
            if len(w) == 0:
                raise ValueError("empty image word; the map would crush an edge")

    @property
    def rank(self) -> int:
        return self.endo.rank

    @cached_property
    def speeds(self) -> tuple:
        return tuple(len(w) for w in self.endo.images)

    @cached_property
    def A(self) -> IntMatrix:
        return self.endo.abelianize()

    @cached_property
    def prefixes(self) -> tuple:
        """prefixes[e][i] = lattice position after the first i letters of psi(e)."""
        out = []
        for w in self.endo.images:
            pos = [0] * self.rank
            path = [tuple(pos)]
            for letter in w:
                pos[letter.generator] += letter.sign
                path.append(tuple(pos))
            out.append(tuple(path))
        return tuple(out)

    @cached_property
    def slots(self) -> tuple:
        """slots[e][i] = the Slot of the i-th letter of psi(e); the offset is
        the lattice position before a positive letter, after a negative one."""
        return tuple(tuple(Slot(l.generator, l.sign, d, -i, pref[i]) if l.sign > 0
                           else Slot(l.generator, l.sign, -d, i + 1, pref[i + 1])
                           for i, l in enumerate(w.letters))
                     for w, pref, d in zip(self.endo.images, self.prefixes, self.speeds))

    @cached_property
    def spectral(self):
        return spectral(self.A)

    def __repr__(self):
        rules = ", ".join(f"{chr(ord('a') + i)}->{w}" for i, w in enumerate(self.endo.images))
        return f"TightMap({self.name}: {rules})"

    # -- evaluation --------------------------------------------------------

    def _locate(self, x: GraphPoint):
        """The slot carrying a non-vertex point x, and the parameter of phi(x)
        on the edge of the slot's generator. x may have been built directly,
        not through graph_point, so its edge and parameter are checked."""
        e, t = x
        if not 0 <= e < self.rank:
            raise ValueError(f"edge {e} outside rank {self.rank}")
        if not 0 <= t < 1:
            raise ValueError(f"edge parameter {t} of edge {e} outside [0, 1)")
        slot = self.slots[e][int(self.speeds[e] * t)]
        return slot, slot.mul * t + slot.add

    def eval(self, x: GraphPoint) -> GraphPoint:
        """phi(x) on the wedge."""
        if x == VERTEX:
            return VERTEX
        slot, u = self._locate(x)
        return graph_point(slot.generator, u)

    def eval_iter(self, x: GraphPoint, k: int) -> GraphPoint:
        for _ in range(_at_least(k, "k", 0)):
            x = self.eval(x)
        return x

    def lift_eval(self, cp: CoverPoint) -> CoverPoint:
        """The origin-fixing lift of phi to the abelian cover."""
        p, base = cp
        abase = self.A.apply(base)
        if p == VERTEX:
            return CoverPoint(VERTEX, abase)
        slot, u = self._locate(p)
        return cover_point(slot.generator, u, tuple(a + x for a, x in zip(abase, slot.offset)))

    def lift_iter(self, cp: CoverPoint, k: int) -> CoverPoint:
        for _ in range(_at_least(k, "k", 0)):
            cp = self.lift_eval(cp)
        return cp

    def advance(self, chart: Chart) -> list:
        """The letter pieces of the lifted image of a chart's edge, in slot
        order: slot i of the edge's image word gives the i-th piece."""
        return self._step(chart, self.slots[chart.edge])

    def _step(self, chart: Chart, slots) -> list:
        """The pieces of the lifted image of a chart's edge through the given
        slots of its image word, in their order; A base is computed once."""
        _, base, o_edge, o_base, alpha, beta = chart
        abase = self.A.apply(base)
        return [Chart(s.generator, tuple(map(add, abase, s.offset)), o_edge, o_base,
                      s.mul * alpha, s.mul * beta + s.add)
                for s in slots]

    # -- sigma and shadowing constants ------------------------------------

    def sigma_report(self, norm: str = "adapted") -> SigmaReport:
        """Certified shadowing constants. On edge e of speed d, sigma at the
        breakpoint j/d is the integer vector d * prefixes[e][j] - j * A e_e
        over d, and sigma is affine between breakpoints, so the maxima over
        breakpoints are the true suprema. Each edge gives one Fraction per
        maximum: its largest |coordinate| over d, and its largest q2 over
        d^2 (q2 has one denominator per norm)."""
        nd = norm_data(self.spectral, norm)
        c_sup = q2max = Fraction(0)
        for d, pref, col in zip(self.speeds, self.prefixes, zip(*self.A.rows)):
            sigmas = [tuple(d * p - j * a for p, a in zip(pref[j], col)) for j in range(d + 1)]
            c_sup = max(c_sup, Fraction(max(abs(x) for sig in sigmas for x in sig), d))
            num, den = max(map(nd.q2, sigmas))
            q2max = max(q2max, Fraction(num, den * d * d))
        # exact for the sup norm, whose q2max is the rational square c_sup^2
        c = rational_sqrt_upper(q2max)
        delta = c / (nd.lam - 1)
        return SigmaReport(c=c, c_sup=c_sup, delta=delta, lam=nd.lam, norm=nd, q2max=q2max)

    # -- periodic points ---------------------------------------------------

    def periodic_points(self, k: int, budget: int | None = None):
        """Fix(phi^k) as a deduplicated, sorted list of PeriodicPoint.

        Each admissible slot itinerary supports exactly one fixed point of
        the composed affine map t -> alpha t + beta (its inverse contracts
        [0,1] into the slot cylinder), so enumeration plus endpoint
        deduplication is complete. Charts walked k slots deep from each
        edge at the origin enumerate the itineraries; one back on its own
        edge closes one and holds alpha, beta and the lifted translation,
        so the last step builds only the pieces through the slots that run
        along that edge, trace(T^k) of them (T below). The walk keeps its
        own stack, so Python's recursion limit does not bound k. The fixed
        point is t0 = num / den, den = |1 - alpha|, and an integer walk on
        numerators over den checks that the orbit stays in every slot's
        cylinder (0 <= mul n + add den <= den) and closes up.

        Each point stays ints until its record: the points sort on (edge,
        num over one common denominator), each distinct (num, den) builds
        one Fraction, and the displacement is the class of the translation
        in BF_k, reduced on ints; Psi runs once per class, and the points
        of one class share its alpha image, one TorusPoint.

        A slot breakpoint maps to the vertex, which is fixed, so no other
        periodic orbit meets one: each such point has exactly one itinerary
        (only the vertex needs deduplication), and its least period is the
        least d | k whose rotation of the itinerary equals the itinerary.
        The vertex has least period 1 and translation 0 (its lift at the
        origin is fixed), whatever slot cycle it was found on.

        With a budget, BudgetExceeded is raised before any walking when
        more than budget charts lie on the way to depth k: the sum over
        j <= k of the entries of T^j, T[e][g] the number of letters g or G
        in psi(e). That count is an upper bound on the charts the walk
        builds, since its last step builds only the closing pieces. After
        that, and also before any walking,
        NotExpanding is raised when a closed itinerary of length k composes
        to the identity, whose fixed points are not isolated.
        """
        k = _at_least(k, "k", 1)
        if budget is not None:
            self._check_walk_budget(k, budget)
        self._refuse_identity_cycles(k)
        slots = self.slots
        zero = (0,) * self.rank
        # steps[e][i] = (e, i, sign of slot i), the step of an itinerary
        # through slot i of psi(e); closing[e][o] = the steps and the slots
        # of the letters of psi(e) that run along edge o
        steps = [tuple((e, i, s.sign) for i, s in enumerate(row)) for e, row in enumerate(slots)]
        closing = [[(tuple(st for st, s in zip(row_steps, row) if s.generator == o),
                     tuple(s for s in row if s.generator == o)) for o in range(self.rank)]
                   for row_steps, row in zip(steps, slots)]
        found, vertex_cycles = [], []
        divisors = [d for d in range(1, k) if k % d == 0]
        # depth-first in slot order: each entry is (chart, the path length
        # before its step, the step that reached it)
        stack = [(Chart(e, zero, e, zero, 1, 0), 0, None) for e in reversed(range(self.rank))]
        path = []
        while stack:
            chart, n, step = stack.pop()
            del path[n:]
            if step is not None:
                path.append(step)
            edge, depth = chart.edge, len(path)
            if depth < k - 1:
                stack.extend(reversed([*zip(self.advance(chart), repeat(depth), steps[edge])]))
                continue
            # the last step, in slot order, through the slots back on the
            # original edge only: each piece closes an itinerary
            o_edge = chart.o_edge
            closers, last = closing[edge][o_edge]
            for step, piece in zip(closers, self._step(chart, last)):
                alpha, beta = piece.alpha, piece.beta
                num, den = (beta, 1 - alpha) if alpha < 1 else (-beta, alpha - 1)
                cyc = (*path, step)
                # defensive: confirm the orbit really follows the itinerary
                x = num
                for e, j, _ in cyc:
                    slot = slots[e][j]
                    x = slot.mul * x + slot.add * den
                    if not 0 <= x <= den:
                        raise RuntimeError("slot cycle solve left its cylinder")
                if x != num:
                    raise RuntimeError("slot cycle solve did not close up")
                if num == 0 or num == den:
                    vertex_cycles.append(cyc)
                    continue
                # a rotation by d | k fixes cyc exactly when cyc is d-periodic
                least = k
                for d in divisors:
                    if cyc[d:] == cyc[:-d]:
                        least = d
                        break
                found.append((o_edge, num, den, least, cyc, piece.base))
        # the vertex is fixed by every power but its itinerary may not close
        # as a slot cycle (its edge-end walk can have a period not dividing k)
        vertex_cycle = vertex_cycles[0] if vertex_cycles else self._vertex_itinerary(k)
        found.append((0, 0, 1, 1, vertex_cycle, zero))
        # order on (edge, t), t = num / den as an integer numerator over one
        # common denominator
        scale = math.lcm(*{f[2] for f in found})
        found.sort(key=lambda f: (f[0], f[1] * (scale // f[2])))
        try:
            bf_group = BFGroup(self.A, k)
        except RootOfUnitySpectrum:
            bf_group = None
        disps = repeat(None) if bf_group is None else bf_group._classes([f[5] for f in found])
        params = {}  # (num, den) -> the Fraction num / den
        images = {}  # displacement coordinates -> the class's one alpha image
        out = []
        for (edge, num, den, least, cyc, base), disp in zip(found, disps):
            t = params.get((num, den))
            if t is None:
                t = params[num, den] = fraction(num, den)
            alpha_img = None
            if disp is not None:
                alpha_img = images.get(disp.r)
                if alpha_img is None:
                    alpha_img = images[disp.r] = psi(disp)
            # positional, in field order: binding keywords costs more per point
            out.append(PeriodicPoint(GraphPoint(edge, t), k, least, cyc, base, disp, alpha_img))
        return out

    def letter_counts(self):
        """T^j 1 for j = 0, 1, 2, ..., T[e][g] the letters g or G in psi(e):
        entry e counts the letters of the unreduced j-fold concatenation of
        image words from edge e, and so the depth-j charts over edge e."""
        gens = [[s.generator for s in row] for row in self.slots]
        level = [1] * self.rank
        while True:
            yield level
            level = [sum(level[g] for g in row) for row in gens]

    def _check_walk_budget(self, k: int, budget: int):
        """BudgetExceeded unless at most budget charts lie on the census
        walk's way down to depth k. There are 1^T T^j 1 charts at depth j
        (letter_counts), all of which the walk builds below depth k and of
        which it builds the trace(T^k) closing ones at depth k; the running
        sum over j is refused as soon as it passes the budget, so the count
        stops early on a large k."""
        budget = _at_least(budget, "budget", 0)
        for charts in accumulate(map(sum, islice(self.letter_counts(), k + 1))):
            if charts > budget:
                raise BudgetExceeded(f"more than {budget} charts in the slot walk to depth {k}")

    def _refuse_identity_cycles(self, k: int):
        """NotExpanding when some closed slot itinerary of length k composes
        to the identity. The composed alpha is the product of the slot muls
        and |mul| is the speed of the slot's edge, so alpha = 1 only on a
        cycle of speed-1 edges, which follows each edge's one slot, with an
        even number of inverse letters in all."""
        for e in range(self.rank):
            edge, sign = e, 1
            for length in range(1, self.rank + 1):
                if self.speeds[edge] != 1:
                    break
                slot = self.slots[edge][0]
                edge, sign = slot.generator, sign * slot.sign
                if edge == e:
                    if k % length == 0 and (sign == 1 or k // length % 2 == 0):
                        raise NotExpanding("slot cycle composes to the identity; "
                                           "fixed points not isolated")
                    break

    def _vertex_itinerary(self, k: int):
        """The vertex orbit written in slot coordinates, starting at (a, t=0)."""
        cyc = []
        state = (0, 0)  # (edge, end), end 0 or 1
        for _ in range(k):
            e, end = state
            i = 0 if end == 0 else self.speeds[e] - 1
            slot = self.slots[e][i]
            cyc.append((e, i, slot.sign))
            state = (slot.generator, slot.mul * end + slot.add)
        return tuple(cyc)

    def shadowing_classes(self, k: int):
        """Fix(phi^k) grouped by alpha image: list of (TorusPoint, points),
        sorted on the image's coordinates.

        Psi is injective, so the groups are those of the displacement's SNF
        coordinates, and the points of one class share one TorusPoint. Every
        coordinate is a numerator over L, the exponent of BF_k, so the
        classes sort on integer numerator tuples in the Fractions' order."""
        pts = self.periodic_points(k)
        # the vertex is always listed, and either every point has a class or none has
        if pts[0].displacement is None:
            raise RootOfUnitySpectrum("shadowing classes need the standing hypothesis")
        L = pts[0].displacement.group.diagonal[-1]  # the exponent of BF_k
        groups = {}
        for p in pts:
            groups.setdefault(p.displacement.r, []).append(p)
        return sorted(((members[0].alpha_image, members) for members in groups.values()),
                      key=lambda c: [x.numerator * (L // x.denominator) for x in c[0].coords])
