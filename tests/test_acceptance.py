"""End-to-end acceptance checks: one test per headline result.

Each test pins the full exact content of one deliverable (group tables,
censuses, certificates, hulls) rather than spot values. Two known-bad
literals are kept as strict xfails right next to their corrected green
companions so a behavior change in either direction is loud.
"""

import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import pytest

from wedgedyn import (
    BFGroup,
    Endomorphism,
    IntMatrix,
    TightMap,
    TorusPoint,
    beta_breakpoints,
    beta_figure,
    cover_point,
    enumerate_fixed,
    hull_vertices,
    holder_bound,
    iota,
    minimal_loops,
    psi,
    rotation_set,
    rotset_figure,
    shadow_pairs,
    snf,
    tail_bound,
    upsilon,
)
from wedgedyn.intmat import rat_inverse

from oracles import cover_from_coords, displacement_set, elements, phi_apply, point_in_hull, vectors

F = Fraction

A2 = IntMatrix(((3, 1), (1, 3)))
GOLDEN = IntMatrix(((2, 1), (1, 1)))


# 1 ------------------------------------------------------------------------
def test_bf_group_tables():
    """BF_k tables for the two worked matrices, exact invariant factors."""
    for k in range(1, 9):
        g = BFGroup(A2, k)
        expected = tuple(d for d in (2 ** k - 1, 4 ** k - 1) if d > 1)
        assert g.invariant_factors == expected
    golden_expected = {2: (5,), 3: (4, 4), 4: (3, 15), 5: (11, 11)}
    for k, factors in golden_expected.items():
        assert BFGroup(GOLDEN, k).invariant_factors == factors


# 2 ------------------------------------------------------------------------
def test_bf_orders():
    """|BF_k| follows the closed form 8^k - (2^k + 4^k) + 1; k=2 gives 45."""
    for k in range(1, 9):
        g = BFGroup(A2, k)
        assert g.order == 8 ** k - (2 ** k + 4 ** k) + 1
    assert BFGroup(A2, 2).order == 45


# 3 ------------------------------------------------------------------------
def _phi2():
    return TightMap(Endomorphism.from_strings(2, "aaab", "bbba"), name="phi2")


def test_fixed_point_census():
    """phi2 has exactly 5 fixed points at the known coordinates, and
    |Fix(phi2^k)| = 2^k + 4^k - N1(k) with N1 = 1 (k odd) or 3 (k even)."""
    m = _phi2()
    pts = m.periodic_points(1)
    table = {(p.point.edge, p.point.t): p.translation for p in pts}
    assert table == {
        (0, F(0)): (0, 0),
        (0, F(1, 3)): (1, 0),
        (0, F(2, 3)): (2, 0),
        (1, F(1, 3)): (0, 1),
        (1, F(2, 3)): (0, 2),
    }
    for k in range(1, 7):
        n1 = 1 if k % 2 else 3
        assert len(m.periodic_points(k)) == 2 ** k + 4 ** k - n1
    assert len(m.periodic_points(2)) == 17


@pytest.mark.xfail(strict=True,
                   reason="quoted count 18 contradicts the exhaustive census "
                          "(17) and the stated formula 2^k + 4^k - N1(k)")
def test_fixed_point_census_quoted_period_two_count():
    assert len(_phi2().periodic_points(2)) == 18


# 4 ------------------------------------------------------------------------
def test_displacement_classes():
    """Fixed-point displacements fill out BF_1 in three classes."""
    m = _phi2()
    g = BFGroup(A2, 1)
    by_point = {(p.point.edge, p.point.t): p.displacement
                for p in m.periodic_points(1)}
    assert by_point[(0, F(1, 3))] == g.reduce((1, 0))
    assert by_point[(0, F(2, 3))] == g.reduce((2, 0))
    assert by_point[(1, F(1, 3))] == g.reduce((0, 1))
    assert g.reduce((1, 0)) == g.reduce((0, 1))
    assert g.reduce((2, 0)) == g.reduce((0, 2))
    classes = set(by_point.values())
    assert len(classes) == 3
    assert classes == set(elements(g))
    assert [e.r for e in displacement_set(m, 1)] == sorted(e.r for e in elements(g))


# 5 ------------------------------------------------------------------------
def test_shadowing_classes():
    """alpha groups the five fixed points into vertex / (2/3,2/3) / (1/3,1/3)."""
    m = _phi2()
    alphas = {(p.point.edge, p.point.t): p.alpha_image.coords
              for p in m.periodic_points(1)}
    assert alphas[(0, F(1, 3))] == (F(2, 3), F(2, 3))
    assert alphas[(1, F(1, 3))] == (F(2, 3), F(2, 3))
    assert alphas[(0, F(2, 3))] == (F(1, 3), F(1, 3))
    assert alphas[(1, F(2, 3))] == (F(1, 3), F(1, 3))
    classes = m.shadowing_classes(1)
    assert sorted(len(pts) for _, pts in classes) == [1, 2, 2]
    assert {tp.coords for tp, _ in classes} == {
        (F(0), F(0)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3))}


# 6 ------------------------------------------------------------------------
def _beta_oracle(m, cp, k):
    img = m.lift_iter(cp, k)
    assert img.point.t in (0, 1)
    n = iota(img)
    ainv, den = rat_inverse(m.A ** k)
    return tuple(F(sum(ainv.rows[i][j] * n[j] for j in range(m.rank)), den)
                 for i in range(m.rank))


def test_beta_breakpoint_values():
    """Level-2 beta on edge a: (3/8,-1/8) at t = 1/4 and (17/32,-7/32) at
    t = 5/16, both confirmed by the direct lifted-iterate oracle."""
    m = _phi2()
    ap = beta_breakpoints(m, 2)
    assert ap.values[0][4] == (F(3, 8), F(-1, 8))
    assert ap.values[0][5] == (F(17, 32), F(-7, 32))
    assert _beta_oracle(m, cover_point(0, F(1, 4), (0, 0)), 2) == (F(3, 8), F(-1, 8))
    assert _beta_oracle(m, cover_point(0, F(5, 16), (0, 0)), 2) == (F(17, 32), F(-7, 32))


@pytest.mark.xfail(strict=True,
                   reason="the quoted value (3/8,-1/8) belongs to t = 1/4; at "
                          "t = 5/16 the letter sum is (4,1), giving (17/32,-7/32)")
def test_beta_quoted_value_at_five_sixteenths():
    ap = beta_breakpoints(_phi2(), 2)
    assert ap.values[0][5] == (F(3, 8), F(-1, 8))


# 7 ------------------------------------------------------------------------
def test_noninjectivity_witness():
    """Two distinct cover points over (1/2,0) and (1,-1/2) share the lifted
    image (2,0); the certifier reports NOT_INJECTIVE."""
    m = _phi2()
    p1 = cover_from_coords((F(1, 2), F(0)))
    p2 = cover_from_coords((F(1), F(-1, 2)))
    assert p1 != p2
    i1, i2 = m.lift_eval(p1), m.lift_eval(p2)
    assert i1 == i2
    assert iota(i1) == (2, 0)
    for norm in ("adapted", "sup"):
        cert = shadow_pairs(m, depth=12, norm=norm)
        assert cert.status == "NOT_INJECTIVE"
        w1, w2 = cert.witness
        assert w1 != w2
        assert m.lift_iter(w1, cert.depth) == m.lift_iter(w2, cert.depth)


# 8 ------------------------------------------------------------------------
def test_injectivity_certification():
    """phi3: eigenvalues {5,7}; in the eigenbasis-adapted norm c = 3/7 < 1
    and delta = 3/28 <= 1/4; the certifier proves injectivity by depth 12."""
    m = TightMap(Endomorphism.from_strings(2, "aaabaaa", "bbbabbb"), name="phi3")
    evs = m.spectral.eigenvalues
    assert all(ev.exact and ev.im == 0 for ev in evs)
    assert sorted(ev.re for ev in evs) == [5, 7]
    sr = m.sigma_report(norm="adapted")
    assert sr.norm.kind == "eigenbasis"
    assert sr.c == F(3, 7) < 1
    assert sr.delta == F(3, 28) <= F(1, 4)
    assert tail_bound(m, 0) == sr.delta
    for norm in ("adapted", "sup"):
        cert = shadow_pairs(m, depth=12, norm=norm)
        assert cert.status == "CERTIFIED_INJECTIVE"
        assert cert.depth <= 12


# 9 ------------------------------------------------------------------------
def test_transition_matrix_and_rotation_set():
    """phi1 transition entries read off the slot table, short minimal loops,
    and a hull equal to the hull of all closed-walk averages up to length 6."""
    m = TightMap(Endomorphism.from_strings(2, "aabAB", "BAbba"), name="phi1")
    assert set(vectors(m, 0, 0)) == {(0, 0), (1, 0), (1, 1)}
    assert set(vectors(m, 1, 0)) == {(1, 0), (2, 0)}
    assert set(vectors(m, 0, 1)) == {(-1, -1), (-1, 1)}
    assert set(vectors(m, 1, 1)) == {(0, -1), (-1, 0), (-1, -1)}
    loops = minimal_loops(m)
    assert loops and all(l.length <= 2 for l in loops)
    rep = rotation_set(m)

    walk_vectors = set()
    occ = {(i, j): vectors(m, i, j) for i in range(2) for j in range(2)}
    for length in range(1, 7):
        for nodes in product(range(2), repeat=length):
            path = nodes + (nodes[0],)
            choices = [occ[(path[s + 1], path[s])] for s in range(length)]
            if any(not c for c in choices):
                continue
            for combo in product(*choices):
                total0 = sum(v[0] for v in combo)
                total1 = sum(v[1] for v in combo)
                walk_vectors.add((F(total0, length), F(total1, length)))
    for vec in walk_vectors:
        assert point_in_hull(vec, rep.hull_vertices)
    assert set(hull_vertices(sorted(walk_vectors))) == set(rep.hull_vertices)


# 10 -----------------------------------------------------------------------
def _check_snf(m):
    dec = snf(m)
    assert dec.U * m * dec.V == dec.D
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1
    diag = dec.diagonal
    n = m.dim
    for i in range(n):
        for j in range(n):
            if i != j:
                assert dec.D.rows[i][j] == 0
        assert diag[i] >= 0
    for i in range(n - 1):
        if diag[i + 1]:
            assert diag[i + 1] % max(diag[i], 1) == 0 or diag[i] == 0
        if diag[i] and diag[i + 1]:
            assert diag[i + 1] % diag[i] == 0
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(m.det())


def test_invariant_property_suites():
    """Structure checks that do not depend on any quoted number: random SNF,
    exhaustive psi injectivity, upsilon functoriality, the orbit displacement
    relation, and beta refinement/equivariance."""
    rng = random.Random(20260823)
    for n in (2, 3):
        for _ in range(200):
            rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                         for _ in range(n))
            _check_snf(IntMatrix(rows))

    g2 = BFGroup(A2, 2)
    images = {psi(e).coords for e in elements(g2)}
    assert len(images) == g2.order == 45
    fixed2 = {p.coords for p in enumerate_fixed(A2, 2)}
    assert images == fixed2

    g1 = BFGroup(A2, 1)
    for e in elements(g1):
        assert upsilon(upsilon(e, 2), 4) == upsilon(e, 4)
        assert psi(upsilon(e, 2)) == psi(e)
        assert psi(upsilon(e, 4)) == psi(e)

    m = _phi2()
    for k in range(1, 5):
        gk = BFGroup(A2, k)
        for p in m.periodic_points(k):
            n0 = p.translation
            x = p.point
            acc = tuple(n0)
            for _ in range(k):
                cp = cover_point(x.edge, x.t, (0, 0))
                disp = m.lift_iter(cp, k).base
                assert gk.reduce(disp) == gk.reduce(acc)
                x = m.eval(x)
                acc = m.A.apply(acc)

    for k in (1, 2, 3):
        apk = beta_breakpoints(m, k)
        apk1 = beta_breakpoints(m, k + 1)
        mexp = 4
        for e in range(2):
            for i in range(len(apk.values[e])):
                assert apk.values[e][i] == apk1.values[e][mexp * i]

    ap1 = beta_breakpoints(m, 1)
    ap2 = beta_breakpoints(m, 2)
    for e in range(2):
        for i in range(17):
            cp = cover_point(e, F(i, 16), (0, 0))
            img = m.lift_eval(cp)
            j = int(img.point.t * 4)
            base_beta = ap1.values[img.point.edge][j]
            img_beta = tuple(b + n for b, n in zip(base_beta, img.base))
            x_beta = ap2.values[e][i]
            ax = tuple(sum(m.A.rows[r][c] * x_beta[c] for c in range(2))
                       for r in range(2))
            assert ax == img_beta
            assert phi_apply(m.A, TorusPoint(x_beta)) == TorusPoint(base_beta)


# 11 -----------------------------------------------------------------------
def test_structural_figure_and_regularity_cover():
    """The figure emitters are deterministic, well-formed SVG with the
    expected element classes, and the regularity bounds they illustrate are
    certified: tail bounds contract geometrically and the Holder exponent
    carries an exact integer-power certificate."""
    m2 = _phi2()
    m1 = TightMap(Endomorphism.from_strings(2, "aabAB", "BAbba"), name="phi1")

    fig_a = beta_figure(beta_breakpoints(m2, 2))
    fig_b = beta_figure(beta_breakpoints(m2, 2))
    assert fig_a == fig_b
    root = ET.fromstring(fig_a)
    assert root.tag.endswith("svg")
    classes = {el.get("class") for el in root.iter() if el.get("class")}
    assert {"edge0", "edge1", "axis"} <= classes

    rep = rotation_set(m1)
    fig_c = rotset_figure(rep)
    assert fig_c == rotset_figure(rep)
    root = ET.fromstring(fig_c)
    classes = {el.get("class") for el in root.iter() if el.get("class")}
    # every minimal-loop vector of this map doubles as a fixed or period-2
    # marker, so no residual loop-class circles are expected
    assert {"hull", "fix", "per2"} <= classes

    for k in range(5):
        assert tail_bound(m2, k + 1) * 2 == tail_bound(m2, k)
    h2 = holder_bound(m2)
    assert h2 == F(1, 2) and 4 ** h2.numerator == 2 ** h2.denominator
    m3 = TightMap(Endomorphism.from_strings(2, "aaabaaa", "bbbabbb"))
    h3 = holder_bound(m3)
    assert 7 ** h3.numerator < 5 ** h3.denominator
