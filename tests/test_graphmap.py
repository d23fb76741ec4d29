import math
import re
import string
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgedyn import (
    AdaptedNormUnavailable,
    BFGroup,
    BudgetExceeded,
    Chart,
    CoverPoint,
    Endomorphism,
    GraphPoint,
    MapSpec,
    NotExpanding,
    RootOfUnitySpectrum,
    TightMap,
    VERTEX,
    cover_point,
    graph_point,
    graphmap,
    iota,
    psi,
)

from oracles import (
    cover_from_coords,
    deck,
    displacement_set,
    elements,
    sigma_report_fractions,
    tight_maps,
)

F = Fraction


def test_graph_point_canonicalization():
    assert graph_point(0, F(0)) == VERTEX
    assert graph_point(1, F(1)) == VERTEX
    assert graph_point(1, F(1, 3)).edge == 1
    with pytest.raises(ValueError):
        graph_point(0, F(5, 4))


def test_iota_and_inverse_roundtrip():
    cp = cover_point(1, F(2, 5), (3, -1))
    assert iota(cp) == (F(3), F(-3, 5))
    assert cover_from_coords(iota(cp)) == cp
    v = cover_point(0, F(0), (2, 2))
    assert cover_from_coords((2, 2)) == v
    assert deck(v, (1, 1)).base == (3, 3)
    # t = 1 canonicalizes onto the next lattice point
    assert cover_point(0, F(1), (0, 0)) == cover_point(1, F(0), (1, 0))


def test_point_constructors_take_exact_input_only():
    """Edge parameters must be numbers.Rational and base coordinates
    integers: a float or a string raises, where Fraction() and int() would
    have converted, truncated or parsed it."""
    with pytest.raises(TypeError, match="base coordinate"):
        cover_point(0, F(2, 5), (1.7, 3))
    with pytest.raises(TypeError, match="base coordinate"):
        cover_point(0, F(2, 5), (1, "3"))
    with pytest.raises(TypeError, match="base coordinate"):
        cover_point(0, F(2, 5), (F(1), 3))
    for t in (0.1, "1/3", 0.5):
        with pytest.raises(TypeError, match="edge parameter"):
            graph_point(0, t)
        with pytest.raises(TypeError, match="edge parameter"):
            cover_point(0, t, (0, 0))
    cp = cover_point(0, F(1, 2), (np.int64(2), True))
    assert cp == cover_point(0, F(1, 2), (2, 1)) and all(type(x) is int for x in cp.base)
    assert cover_point(1, np.int64(1), (0, 0)) == cover_point(1, True, (0, 0)) == (VERTEX, (0, 1))
    assert graph_point(1, np.int64(0)) == graph_point(1, False) == VERTEX


def test_graph_point_takes_an_int_edge_at_least_zero():
    with pytest.raises(ValueError, match="edge must be >= 0, got -1"):
        graph_point(-1, F(1, 8))
    with pytest.raises(TypeError, match="edge must be an integer"):
        graph_point(1.0, F(1, 8))
    p = graph_point(np.int64(1), F(1, 8))
    assert p == GraphPoint(1, F(1, 8)) and type(p.edge) is int


def test_cover_point_takes_an_edge_of_its_base():
    with pytest.raises(ValueError, match="edge must be >= 0, got -1"):
        cover_point(-1, F(1), (0, 0))
    for edge in (2, 5):
        with pytest.raises(ValueError, match=f"edge {edge} outside a base of length 2"):
            cover_point(edge, F(1, 2), (0, 0))
    assert type(cover_point(np.int64(1), F(1, 2), (0, 0)).point.edge) is int


@pytest.mark.parametrize("edge", [2, 5])
def test_eval_refuses_an_edge_past_the_rank(phi2, edge):
    with pytest.raises(ValueError, match=f"edge {edge} outside rank 2"):
        phi2.eval(graph_point(edge, F(1, 8)))
    with pytest.raises(ValueError, match=f"edge {edge} outside rank 2"):
        phi2.lift_eval(CoverPoint(graph_point(edge, F(1, 8)), (0, 0)))


@pytest.mark.parametrize("point, message", [
    (GraphPoint(-1, F(1, 8)), "edge -1 outside rank 2"),
    (GraphPoint(0, F(3, 2)), "edge parameter 3/2 of edge 0 outside"),
    (GraphPoint(0, F(-1, 2)), "edge parameter -1/2 of edge 0 outside"),
])
def test_eval_refuses_a_point_built_off_the_wedge(phi2, point, message):
    """GraphPoint itself checks nothing, so eval and lift_eval name the bad
    edge or parameter of their input."""
    with pytest.raises(ValueError, match=re.escape(message)):
        phi2.eval(point)
    with pytest.raises(ValueError, match=re.escape(message)):
        phi2.lift_eval(CoverPoint(point, (0, 0)))


@pytest.mark.parametrize("t", [2, F(5, 4), F(-1, 3)])
def test_cover_point_rejects_parameters_off_the_edge(t):
    with pytest.raises(ValueError, match="outside"):
        graph_point(0, t)
    with pytest.raises(ValueError, match="outside"):
        cover_point(0, t, (0, 0))


def test_eval_slots(phi2):
    # psi(a) = aaab at speed 4: t in [0, 1/4) runs along a from 0
    assert phi2.eval(graph_point(0, F(1, 8))) == graph_point(0, F(1, 2))
    assert phi2.eval(graph_point(0, F(1, 4))) == graph_point(0, F(0)) == VERTEX
    assert phi2.eval(graph_point(0, F(7, 8))) == graph_point(1, F(1, 2))
    assert phi2.eval(VERTEX) == VERTEX


def test_eval_orientation_reversal(phi1):
    # psi(a) = aabAB: 4th letter A traverses a backwards
    p = phi1.eval(graph_point(0, F(13, 20)))  # slot 3, u = 1/4
    assert p == graph_point(0, F(3, 4))


def test_lift_equivariance(phi2):
    a = phi2.A
    for cp in [cover_point(0, F(1, 8), (0, 0)), cover_point(1, F(5, 7), (2, -3))]:
        for n in [(1, 0), (-2, 5)]:
            lhs = phi2.lift_eval(deck(cp, n))
            rhs = deck(phi2.lift_eval(cp), a.apply(n))
            assert lhs == rhs


def test_lift_projects_to_eval(phi3):
    cp = cover_point(0, F(3, 14), (1, 1))
    assert phi3.lift_eval(cp).point == phi3.eval(cp.point)


def test_sigma_reports(phi2, phi3):
    r2 = phi2.sigma_report()
    assert r2.c_sup == F(3, 4)
    assert r2.q2max == F(9, 16)
    assert r2.c == F(3, 4)
    assert r2.lam == 2
    assert r2.delta == F(3, 4)
    r3 = phi3.sigma_report()
    assert r3.c == F(3, 7) and r3.lam == 5 and r3.delta == F(3, 28)
    s2 = phi2.sigma_report(norm="sup")
    assert s2.c == F(3, 4) and s2.lam == 2


def test_sigma_report_not_expanding(phi1):
    with pytest.raises(NotExpanding):
        phi1.sigma_report()


def test_sigma_report_norm_precedence():
    """Expansion is checked before the norm name, and the name before the
    norm itself: an unknown norm is a ValueError on an expanding map with
    neither norm, and NotExpanding on a map that does not expand."""
    twisted = TightMap(Endomorphism.from_strings(3, "b", "c", "aabca"))
    assert twisted.spectral.is_expanding
    with pytest.raises(AdaptedNormUnavailable, match="no exact adapted norm for this matrix"):
        twisted.sigma_report()
    with pytest.raises(NotExpanding, match="matrix does not contract the sup norm backwards"):
        twisted.sigma_report(norm="sup")
    with pytest.raises(ValueError, match="unknown norm 'l2'"):
        twisted.sigma_report(norm="l2")
    shear = TightMap(Endomorphism.from_strings(2, "ab", "b"))
    with pytest.raises(NotExpanding, match="abelianization is not expanding"):
        shear.sigma_report(norm="l2")


@settings(max_examples=80, deadline=None)
@given(tight_maps(), st.sampled_from(["adapted", "sup"]))
@example(TightMap(Endomorphism.from_strings(3, "b", "c", "aabca")), "adapted")
@example(TightMap(Endomorphism.from_strings(3, "aCb", "bac", "caa")), "adapted")
@example(TightMap(Endomorphism.from_strings(2, "ab", "b")), "sup")
def test_sigma_report_matches_fraction_oracle(m, norm):
    """sigma_report over one denominator per edge gives the Fractions that
    a Fraction sigma vector at every breakpoint gives, and refuses a map
    with the oracle's error wherever the oracle refuses it."""
    try:
        want = sigma_report_fractions(m, norm)
    except (NotExpanding, AdaptedNormUnavailable) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            m.sigma_report(norm)
        return
    sr = m.sigma_report(norm)
    got = (sr.c_sup, sr.q2max, sr.c, sr.delta, sr.lam)
    assert got == want
    assert all(type(x) is Fraction for x in got)


def test_fixed_points_phi2(phi2):
    pts = phi2.periodic_points(1)
    coords = [(p.point.edge, p.point.t) for p in pts]
    assert coords == [(0, F(0)), (0, F(1, 3)), (0, F(2, 3)), (1, F(1, 3)), (1, F(2, 3))]
    by_coord = {(p.point.edge, p.point.t): p for p in pts}
    assert by_coord[(0, F(1, 3))].translation == (1, 0)
    assert by_coord[(0, F(2, 3))].translation == (2, 0)
    assert by_coord[(1, F(1, 3))].translation == (0, 1)
    assert by_coord[(1, F(2, 3))].translation == (0, 2)
    for p in pts:
        assert phi2.eval(p.point) == p.point
        assert p.period == 1 and p.least_period == 1


def test_fixed_point_count_law(phi2):
    for k in range(1, 7):
        n1 = 1 if k % 2 else 3
        pts = phi2.periodic_points(k)
        assert len(pts) == 2 ** k + 4 ** k - n1
        for p in pts:
            assert phi2.eval_iter(p.point, k) == p.point


def test_least_period_divides(phi2):
    pts = phi2.periodic_points(2)
    fixed = [p for p in pts if p.least_period == 1]
    assert len(fixed) == 5
    for p in pts:
        assert p.period == 2
        if p.least_period == 1:
            assert phi2.eval(p.point) == p.point
        else:
            assert p.least_period == 2
            assert phi2.eval(p.point) != p.point


def test_displacements_and_alpha(phi2, a2):
    g = BFGroup(a2, 1)
    pts = phi2.periodic_points(1)
    by_coord = {(p.point.edge, p.point.t): p for p in pts}
    da13 = by_coord[(0, F(1, 3))].displacement
    da23 = by_coord[(0, F(2, 3))].displacement
    db13 = by_coord[(1, F(1, 3))].displacement
    db23 = by_coord[(1, F(2, 3))].displacement
    assert da13 == g.reduce((1, 0)) == g.reduce((0, 1)) == db13
    assert da23 == g.reduce((2, 0)) == g.reduce((0, 2)) == db23
    assert da13 != da23
    assert len({p.displacement for p in pts}) == 3
    assert by_coord[(0, F(1, 3))].alpha_image.coords == (F(2, 3), F(2, 3))
    assert by_coord[(0, F(2, 3))].alpha_image.coords == (F(1, 3), F(1, 3))
    # alpha = psi of the displacement class
    for p in pts:
        assert p.alpha_image == psi(p.displacement)


def test_displacement_set_covers_group(phi2, a2):
    classes = displacement_set(phi2, 1)
    assert len(classes) == 3  # all of BF_1(A_2)
    assert len(list(elements(BFGroup(a2, 1)))) == 3


def test_orbit_relation(phi2, a2):
    """D_k(f x) = A D_k(x): the translation of the iterate, recomputed from
    a fresh base-0 lift, lands in the expected coset."""
    for k in range(1, 5):
        g = BFGroup(a2, k)
        for p in phi2.periodic_points(k):
            if p.displacement is None:
                continue
            fx = phi2.eval(p.point)
            fx_img = phi2.lift_iter(cover_point(fx.edge, fx.t, (0, 0)), k)
            assert g.reduce(fx_img.base) == g.reduce(a2.apply(p.translation))


def test_shadowing_classes(phi2):
    classes = phi2.shadowing_classes(1)
    # {vertex}, {(a,1/3),(b,1/3)}, {(a,2/3),(b,2/3)} grouped by alpha
    assert len(classes) == 3
    sizes = sorted(len(pts) for _, pts in classes)
    assert sizes == [1, 2, 2]
    for torus_pt, pts in classes:
        for p in pts:
            assert p.alpha_image == torus_pt


def test_translation_matches_lift(phi2):
    for p in phi2.periodic_points(2):
        img = phi2.lift_iter(cover_point(p.point.edge, p.point.t, (0, 0)), 2)
        assert img.point == p.point
        assert img.base == p.translation


_PHI2 = TightMap(Endomorphism.from_strings(2, "aaab", "bbba"))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 1), st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_eval_iter_composes(e, t):
    p = graph_point(e, t)
    assert _PHI2.eval_iter(p, 2) == _PHI2.eval(_PHI2.eval(p))
    assert _PHI2.eval_iter(p, 0) == p


@st.composite
def random_maps(draw):
    """A rank 2-3 map with inverse letters, as a DSL spec, and a level k."""
    rank = draw(st.integers(2, 3))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = tuple(draw(st.text(alphabet=alphabet, min_size=1, max_size=7 - rank))
                  for _ in range(rank))
    return MapSpec(name="m", rank=rank, rules=rules), draw(st.integers(1, 5 - rank))


@settings(max_examples=80, deadline=None)
@given(random_maps())
def test_periodic_points_match_replay_oracle(case):
    """The integer census against the per-point lift_iter/eval_iter replays."""
    spec, k = case
    try:
        m = TightMap(spec.to_endomorphism())
    except ValueError:
        assume(False)
    try:
        pts = m.periodic_points(k)
    except NotExpanding:
        assume(False)
    where = [(p.point.edge, p.point.t) for p in pts]
    assert where == sorted(set(where))
    zero = (0,) * m.rank
    for p in pts:
        end = m.lift_iter(cover_point(p.point.edge, p.point.t, zero), k)
        assert end.point == p.point
        assert p.translation == end.base
        assert p.least_period == min(d for d in range(1, k + 1)
                                     if k % d == 0 and m.eval_iter(p.point, d) == p.point)
        if p.displacement is None:
            assert p.alpha_image is None
        else:
            assert p.displacement == BFGroup(m.A, k).reduce(p.translation)
            assert p.alpha_image == psi(p.displacement)


def _text_step(words, e, t, base):
    """One step of the lifted map read off the image-word text: the letter at
    floor(d t) of psi(e), run forwards (u = d t - i) when lowercase and
    backwards (u = i + 1 - d t) when uppercase, with the lattice offset
    counted from the letters before it (and through it, when uppercase)."""

    def counts(text):
        return [text.count(ch) - text.count(ch.upper())
                for ch in string.ascii_lowercase[:len(words)]]

    word = words[e]
    d = len(word)
    i = math.floor(d * t)
    ch = word[i]
    u = d * t - i if ch.islower() else i + 1 - d * t
    offset = counts(word[:i] if ch.islower() else word[:i + 1])
    # A's column j is the letter count of psi(j)
    cols = [counts(w) for w in words]
    abase = [sum(n * col[r] for n, col in zip(base, cols)) for r in range(len(words))]
    return string.ascii_lowercase.index(ch.lower()), u, tuple(a + o for a, o in zip(abase, offset))


@settings(max_examples=80, deadline=None)
@given(random_maps(), st.data())
def test_eval_and_lift_match_word_text(case, data):
    """eval and lift_eval, iterated, against a walk over the image words."""
    spec, k = case
    try:
        m = TightMap(spec.to_endomorphism())
    except ValueError:
        assume(False)
    words = [str(w) for w in m.endo.images]
    e = data.draw(st.integers(0, m.rank - 1))
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=60)
                  .filter(lambda x: x < 1))
    base = data.draw(st.tuples(*[st.integers(-3, 3)] * m.rank))
    x, cp = graph_point(e, t), cover_point(e, t, base)
    for _ in range(k):
        e, t, base = _text_step(words, e, t, base)
        x, cp = m.eval(x), m.lift_eval(cp)
        assert cp == cover_point(e, t, base)
        assert x == graph_point(e, t)
        e, t, base = cp.point.edge, cp.point.t, cp.base


@pytest.mark.parametrize("name", ["phi1", "phi2", "phi3"])
def test_advance_leaves_follow_lift_iter(request, name):
    """After k advance steps from a whole lifted edge, each leaf chart's
    original point at u = 1/3 lifts in k steps to the point u = 1/3 of the
    leaf's own lifted edge; the leaves are the letters of psi^k(e)."""
    m = request.getfixturevalue(name)
    u = F(1, 3)
    for e in range(m.rank):
        base = (1, -2)
        leaves = [Chart(e, base, e, base, 1, 0)]
        for k in range(1, 4):
            leaves = [piece for leaf in leaves for piece in m.advance(leaf)]
            assert len(leaves) == len(m.endo.power(k).images[e])
            for leaf in leaves:
                assert m.lift_iter(leaf.orig_point(u), k) == cover_point(leaf.edge, u, leaf.base)


def test_census_builds_only_the_closing_pieces(phi3, monkeypatch):
    """Every piece of the census walk goes through TightMap._step. On phi3
    (speed 7, so a depth-j piece has |alpha| = 7^j) at k = 4 the walk
    builds all 1^T T^j 1 pieces below depth 4, but at depth 4 only the
    trace(T^4) = 3,026 closing ones, not the 1^T T^4 1 = 4,802 letters of
    psi^4; T = A = [[6, 1], [1, 6]] has eigenvalues 7 and 5."""
    built = Counter()
    step = TightMap._step

    def counting(self, chart, slots):
        pieces = step(self, chart, slots)
        built.update(round(math.log(abs(p.alpha), 7)) for p in pieces)
        return pieces

    monkeypatch.setattr(TightMap, "_step", counting)
    phi3.periodic_points(4)
    assert built == {1: 14, 2: 98, 3: 686, 4: 7 ** 4 + 5 ** 4}


def test_shadowing_classes_runs_one_census_and_psi_per_class(phi2, monkeypatch):
    """shadowing_classes runs TightMap.periodic_points once, and the census
    calls Psi through graphmap's own binding once per class; the
    benchmark's tracer counts both calls on those two names."""
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(TightMap, "periodic_points", counted("census", TightMap.periodic_points))
    monkeypatch.setattr(graphmap, "psi", counted("psi", graphmap.psi))
    classes = phi2.shadowing_classes(3)
    assert len(classes) == 66
    assert calls == {"census": 1, "psi": len(classes)}


def test_periodic_points_take_an_int_level(phi2):
    """k goes through operator.index, as BFGroup's k does: a bool or a
    numpy int lists the points of that int level, and a float raises."""
    for k in (True, np.int64(2)):
        pts = phi2.periodic_points(k)
        assert pts == phi2.periodic_points(int(k))
        assert all(type(p.period) is int for p in pts)
    with pytest.raises(TypeError, match="k must be an integer, got 2.0"):
        phi2.periodic_points(2.0)


def test_periodic_points_budget_is_the_chart_count(phi2):
    """phi2's letter-count matrix has row sums 4, so the walk visits
    2 * 4^j charts at depth j, 2 + 8 + 32 + 128 = 170 down to depth 3; the
    budget admits exactly that many."""
    assert len(phi2.periodic_points(3, budget=170)) == len(phi2.periodic_points(3))
    with pytest.raises(BudgetExceeded, match="more than 169 charts in the slot walk to depth 3"):
        phi2.periodic_points(3, budget=169)
    with pytest.raises(ValueError):
        phi2.periodic_points(3, budget=-1)



@st.composite
def _slow_maps(draw):
    """A rank 1-3 map whose image words have one or two letters, so speed-1
    edges and their slot cycles are common."""
    rank = draw(st.integers(1, 3))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = [draw(st.text(alphabet=alphabet, min_size=1, max_size=2)) for _ in range(rank)]
    return rules, draw(st.integers(1, 4))


def _has_identity_cycle(m, k):
    """Whether some closed itinerary of k letter slots composes to alpha = 1,
    by multiplying the slot maps' slopes (speed times sign) over every
    itinerary, read off the image words."""
    words = [w.letters for w in m.endo.images]
    walks = [(e, e, 1) for e in range(m.rank)]  # (start edge, edge, alpha)
    for _ in range(k):
        walks = [(s, l.generator, alpha * len(words[e]) * l.sign)
                 for s, e, alpha in walks for l in words[e]]
    return any(s == e and alpha == 1 for s, e, alpha in walks)


@settings(max_examples=150, deadline=None)
@given(_slow_maps())
def test_identity_slot_cycles_are_refused_exactly(case):
    rules, k = case
    try:
        m = TightMap(Endomorphism.from_strings(len(rules), *rules))
    except ValueError:
        assume(False)
    if _has_identity_cycle(m, k):
        with pytest.raises(NotExpanding, match="slot cycle composes to the identity"):
            m.periodic_points(k)
    else:
        m.periodic_points(k)


def test_identity_slot_cycle_needs_an_even_sign():
    """a -> B -> a is a slot cycle of length 2 whose two inverse letters
    cancel in sign: the identity at k = 2 and 4, absent at k = 1 and 3."""
    m = TightMap(Endomorphism.from_strings(2, "B", "A"))
    for k in (2, 4):
        with pytest.raises(NotExpanding):
            m.periodic_points(k)
    for k in (1, 3):
        assert [p.point for p in m.periodic_points(k)] == [VERTEX]
    flip = TightMap(Endomorphism.from_strings(1, "A"))
    assert [p.point for p in flip.periodic_points(3)] == [VERTEX, graph_point(0, F(1, 2))]
    with pytest.raises(NotExpanding):
        flip.periodic_points(2)


@st.composite
def _expanding_maps(draw):
    """A rank 2-3 map whose image words have 2 to 4 letters, and k <= 3."""
    rank = draw(st.integers(2, 3))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = [draw(st.text(alphabet=alphabet, min_size=2, max_size=4)) for _ in range(rank)]
    return rules, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(_expanding_maps())
def test_census_classes_match_a_fresh_group(case):
    """Each point's displacement is the class of its translation in a fresh
    BF_k and its alpha image is psi of that; shadowing_classes equals the
    points grouped by alpha image and sorted on its Fraction coordinates,
    and the points of one class share one TorusPoint."""
    rules, k = case
    try:
        m = TightMap(Endomorphism.from_strings(len(rules), *rules))
    except ValueError:
        assume(False)
    assume(min(m.speeds) >= 2)
    try:
        group = BFGroup(m.A, k)
    except RootOfUnitySpectrum:
        group = None
    pts = m.periodic_points(k)
    for p in pts:
        if group is None:
            assert p.displacement is None and p.alpha_image is None
        else:
            fresh = BFGroup(m.A, k).reduce(p.translation)
            assert p.displacement == fresh
            assert p.alpha_image == psi(fresh)
    if group is None:
        with pytest.raises(RootOfUnitySpectrum):
            m.shadowing_classes(k)
        return
    groups = {}
    for p in pts:
        groups.setdefault(p.alpha_image, []).append(p)
    classes = m.shadowing_classes(k)
    assert classes == sorted(groups.items(), key=lambda item: item[0].coords)
    for image, members in classes:
        assert all(p.alpha_image is image for p in members)
