import doctest
import gc
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgedyn import (
    BFElement,
    BFGroup,
    BudgetExceeded,
    DimensionMismatch,
    IntMatrix,
    NotDivisible,
    RootOfUnitySpectrum,
    enumerate_fixed,
    has_root_of_unity_factor,
    char_poly,
    psi,
    rat_inverse,
    upsilon,
)
from wedgedyn import bf, intmat
from wedgedyn.bf import TorusPoint

from oracles import c_matrix, elements, phi_apply, representative


def test_bf_table_a2(a2):
    for k in range(1, 9):
        g = BFGroup(a2, k)
        want = tuple(d for d in (2 ** k - 1, 4 ** k - 1) if d > 1)
        assert g.invariant_factors == want
        assert g.order == (2 ** k - 1) * (4 ** k - 1)


def test_bf_table_golden_mean_square():
    a = IntMatrix(((2, 1), (1, 1)))
    expected = {2: (5,), 3: (4, 4), 4: (3, 15), 5: (11, 11)}
    for k, want in expected.items():
        assert BFGroup(a, k).invariant_factors == want
    assert BFGroup(a, 1).invariant_factors == ()
    assert BFGroup(a, 1).order == 1


def test_order_formula(a2):
    for k in range(1, 9):
        g = BFGroup(a2, k)
        assert g.order == 8 ** k - (2 ** k + 4 ** k) + 1
        assert g.order == abs((a2 ** k - IntMatrix.identity(2)).det())
    assert BFGroup(a2, 2).order == 45


def test_root_of_unity_rejected():
    with pytest.raises(RootOfUnitySpectrum):
        BFGroup(IntMatrix(((1, 1), (0, 1))), 1)
    with pytest.raises(RootOfUnitySpectrum):
        BFGroup(IntMatrix(((0, -1), (1, 0))), 2)


def test_elements_and_group_ops(a2):
    g = BFGroup(a2, 1)
    els = list(elements(g))
    assert len(els) == 3
    for x in els:
        assert g.reduce(representative(x)) == x
    x = g.reduce((1, 0))
    y = g.reduce((0, 1))
    assert x == y  # (1,0) and (0,1) agree mod (A-I)Z^2
    assert g.reduce((2, 0)) == g.reduce((0, 2))
    assert g.reduce((1, 0)) != g.reduce((2, 0))


def test_element_coordinates_must_match_the_rank():
    """BF_3 of [[2, 1], [1, 1]] is Z/4 x Z/4: a coordinate tuple of any other
    length names no element, rather than one zip has truncated or padded."""
    g = BFGroup(IntMatrix(((2, 1), (1, 1))), 3)
    assert g.diagonal == (4, 4)
    assert BFElement(g, (0, 1)).r == (0, 1)
    for r in [(), (1,), (0, 1, 2)]:
        with pytest.raises(DimensionMismatch):
            BFElement(g, r)
    for r in [(4, 0), (0, -1)]:
        with pytest.raises(ValueError, match="outside the SNF box"):
            BFElement(g, r)


def test_psi_embedding_injective(a2):
    g = BFGroup(a2, 2)
    assert g.order == 45
    images = {psi(el) for el in elements(g)}
    assert len(images) == 45
    assert psi(g.reduce((0, 0))) == TorusPoint((Fraction(0), Fraction(0)))


def test_psi_image_fixed_by_phi(a2):
    for k in (1, 2):
        g = BFGroup(a2, k)
        for el in elements(g):
            pt = psi(el)
            cur = pt
            for _ in range(k):
                cur = phi_apply(a2, cur)
            assert cur == pt


def test_upsilon_functoriality(a2):
    g1 = BFGroup(a2, 1)
    for el in elements(g1):
        via2 = upsilon(upsilon(el, 2), 4)
        direct = upsilon(el, 4)
        assert via2 == direct
        # the embedding is compatible: same torus point at every level
        assert psi(el) == psi(direct)


def test_enumerate_fixed(a2):
    fix1 = enumerate_fixed(a2, 1)
    assert len(fix1) == 3
    coords = {p.coords for p in fix1}
    assert TorusPoint((Fraction(0), Fraction(0))).coords in coords
    assert (Fraction(1, 3), Fraction(1, 3)) in coords
    assert (Fraction(2, 3), Fraction(2, 3)) in coords
    for p in fix1:
        assert phi_apply(a2, p) == p
    fix2 = enumerate_fixed(a2, 2)
    assert len(fix2) == 45
    for p in fix2:
        assert phi_apply(a2, phi_apply(a2, p)) == p


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2), st.integers(1, 3))
def test_order_equals_det_random(rows, k):
    a = IntMatrix(tuple(tuple(r) for r in rows))
    if has_root_of_unity_factor(char_poly(a)):
        return
    g = BFGroup(a, k)
    assert g.order == abs((a ** k - IntMatrix.identity(2)).det())
    if g.order <= 400:
        assert len(enumerate_fixed(a, k)) == g.order


@st.composite
def bf_cases(draw):
    """A rank 2-4 integer matrix, a level k and an integer vector."""
    dim = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    a = IntMatrix(tuple(tuple(r) for r in draw(st.lists(row, min_size=dim, max_size=dim))))
    k = draw(st.integers(1, 5 - dim))
    vec = tuple(draw(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim)))
    return a, k, vec


@settings(max_examples=80, deadline=None)
@given(bf_cases())
@example((IntMatrix(((3, 1), (1, 3))), 2, (4, -7)))  # det(A^k - I) = 45
@example((IntMatrix(((3, 2), (1, 1))), 2, (-5, 3)))  # det(A^k - I) = -12
def test_psi_and_enumerate_fixed_match_fraction_oracle(case):
    """The integer kernels against (A^k - I)^-1 n mod 1 worked in Fractions."""
    a, k, vec = case
    try:
        g = BFGroup(a, k)
    except RootOfUnitySpectrum:
        assume(False)
    m = a ** k - IntMatrix.identity(a.dim)
    inv_n, den = rat_inverse(m)

    def inv_apply(v):
        return tuple(Fraction(x, den) for x in inv_n.apply(v))

    assert psi(g.reduce(vec)) == TorusPoint(inv_apply(vec))
    for e in itertools.islice(elements(g), 64):
        assert psi(e) == TorusPoint(inv_apply(representative(e)))
    if g.order > 2000:
        return
    coords = [p.coords for p in enumerate_fixed(a, k)]
    assert len(coords) == abs(m.det())
    assert coords == sorted(set(coords))
    assert set(coords) == {TorusPoint(inv_apply(representative(e))).coords
                           for e in elements(g)}
    ak = a ** k
    for c in coords:
        assert all((y - x).denominator == 1 for x, y in zip(c, ak.apply(c)))


@settings(max_examples=80, deadline=None)
@given(bf_cases(), st.integers(1, 4))
@example((IntMatrix(((3, 1), (1, 3))), 1, (4, -7)), 2)
def test_group_built_beside_a_live_group_matches_a_fresh_one(case, j):
    """BF_j built while BF_i of the same A lives, so from A's tower, is the
    group built after every group of A died, from a fresh check."""
    gc.collect()  # no tower of A left reachable from an earlier test's cycles
    a, i, vec = case
    try:
        g = BFGroup(a, i)
    except RootOfUnitySpectrum:
        assume(False)
    shared = BFGroup(a, j)
    assert shared._tower is g._tower
    seen = (shared.M, shared.order, shared.diagonal, shared._level.psi_map, shared.reduce(vec).r)
    del g, shared
    assert a.rows not in bf._towers
    fresh = BFGroup(a, j)
    assert seen == (fresh.M, fresh.order, fresh.diagonal, fresh._level.psi_map,
                    fresh.reduce(vec).r)
    assert fresh == BFGroup(a, j)


@pytest.mark.parametrize("i, j", [(1, 0), (1, -2), (2, 0), (2, -2)])
def test_upsilon_to_a_nonpositive_level_raises(a2, i, j):
    e = BFGroup(a2, i).reduce((1, 0))
    with pytest.raises(ValueError, match="k must be >= 1"):
        upsilon(e, j)


def test_groups_of_a_live_a_check_the_spectrum_once(monkeypatch):
    gc.collect()
    calls = []
    monkeypatch.setattr(bf, "char_poly", lambda a: calls.append(a) or char_poly(a))
    a = IntMatrix(((2, 1), (1, 1)))
    groups = [BFGroup(a, k) for k in range(1, 5)]
    assert len(calls) == 1
    assert BFGroup(IntMatrix(((2, 1), (1, 1))), 7).order == 29 * 29  # equal A, not the same one
    assert len(calls) == 1
    del groups
    BFGroup(a, 1)
    assert len(calls) == 2


def test_a_tower_takes_one_determinant_per_level_and_one_power(monkeypatch):
    """Levels 1-4 of one A: snf's one IntMatrix.det of M per level also
    certifies the order, and level k takes A^k from level k - 1."""
    gc.collect()
    a = IntMatrix(((2, 1), (1, 1)))
    assert a.rows not in bf._towers
    calls = []
    det, power = IntMatrix.det, IntMatrix.__pow__
    monkeypatch.setattr(IntMatrix, "det", lambda m: calls.append("det") or det(m))
    monkeypatch.setattr(IntMatrix, "__pow__", lambda m, k: calls.append("pow") or power(m, k))
    groups = []
    for k in range(1, 5):
        g = BFGroup(a, k)
        groups.append((g, g.order, g.diagonal, psi(g.reduce((1, 0)))))
    assert (calls.count("det"), calls.count("pow")) == (4, 1)
    assert [g.M for g, *_ in groups] == [power(a, k) - IntMatrix.identity(2) for k in range(1, 5)]


def test_upsilon_target_shares_the_live_groups_smith_form(a2):
    g1, g2 = BFGroup(a2, 1), BFGroup(a2, 2)
    y = upsilon(g1.reduce((1, 0)), 2)
    assert y.group == g2 and y.group is not g2
    assert y.group._level is g2._level
    assert y.group.M is g2.M
    psi(g2.reduce((1, 0)))
    w = g2._level.psi_map
    psi(y)  # reads the level's Psi map and numerator table, builds neither again
    assert y.group._level.psi_map is w and y.group._level.coords is g2._level.coords


def test_towers_die_with_the_last_group_and_element(a2):
    gc.collect()
    g = BFGroup(a2, 1)
    e = g.reduce((1, 0))
    y = upsilon(e, 3)
    p = psi(y)
    assert a2.rows in bf._towers
    del g
    assert a2.rows in bf._towers  # e and y still refer to groups of a2
    del e, y
    assert not bf._towers  # the torus point keeps Fractions only, no group
    assert p.coords


@pytest.mark.parametrize("rows", [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((0, -1), (1, 0))])
def test_root_of_unity_matrices_are_refused_every_time_and_get_no_tower(rows):
    gc.collect()
    a = IntMatrix(rows)
    for k in (1, 2, 1):
        with pytest.raises(RootOfUnitySpectrum):
            BFGroup(a, k)
    assert a.rows not in bf._towers


def test_over_budget_enumeration_builds_no_smith_form(a2):
    """enumerate_fixed refuses before the level's Smith form is built; a
    live group keeps the level to look at."""
    gc.collect()
    g = BFGroup(a2, 2)
    with pytest.raises(BudgetExceeded):
        enumerate_fixed(a2, 2, budget=44)
    assert g._tower[2] is g._level and g.M is g._level.M
    assert "snf" not in vars(g._level) and "psi_map" not in vars(g._level)


def test_budgeted_enumeration_eliminates_m_once(monkeypatch):
    """The budget check and the Smith form's certificate read one
    determinant of M = A^2 - I, which M keeps once taken."""
    gc.collect()
    a = IntMatrix(((3, 1), (1, 4)))
    assert a.rows not in bf._towers
    m = a ** 2 - IntMatrix.identity(2)
    assert m.det() == 95
    calls = []
    gauss_jordan = intmat._gauss_jordan
    monkeypatch.setattr(intmat, "_gauss_jordan", lambda rows: calls.append(rows) or gauss_jordan(rows))
    assert len(enumerate_fixed(a, 2, budget=95)) == 95
    assert calls == [m.rows]


def test_enumerate_fixed_shares_the_levels_fractions(a2):
    """Torus points and Psi images of one level share one Fraction per
    numerator, from the level's table."""
    g = BFGroup(a2, 2)
    pts = enumerate_fixed(a2, 2)
    _, den = g._level.psi_map
    assert sorted(g._level.coords) == list(range(den))
    images = {psi(e).coords: psi(e) for e in elements(g)}
    for p in pts:
        assert all(x is y for x, y in zip(p.coords, images[p.coords].coords))


def test_enumerate_fixed_budget(a2):
    # |det(A^2 - I)| = 45 fixed points at level 2
    assert len(enumerate_fixed(a2, 2, budget=45)) == 45
    with pytest.raises(BudgetExceeded, match="45 torus fixed points exceed budget 44"):
        enumerate_fixed(a2, 2, budget=44)
    with pytest.raises(ValueError):
        enumerate_fixed(a2, 2, budget=-1)


@settings(max_examples=80, deadline=None)
@given(bf_cases())
def test_reduce_is_u_n_modulo_the_diagonal(case):
    """reduce gives plain int coordinates U n mod d_i, inside the SNF box,
    for int input, and refuses a vector of the wrong length or of Fractions,
    even integral ones."""
    a, k, vec = case
    try:
        g = BFGroup(a, k)
    except RootOfUnitySpectrum:
        assume(False)
    e = g.reduce(vec)
    want = tuple(x % d for x, d in zip(g._level.snf.U.apply(vec), g.diagonal))
    assert e.r == want
    assert all(type(x) is int for x in e.r)
    assert e == BFElement(g, want)
    with pytest.raises(TypeError, match="coordinate must be an integer"):
        g.reduce(tuple(Fraction(x) for x in vec))
    with pytest.raises(DimensionMismatch):
        g.reduce(vec + (0,))
    with pytest.raises(DimensionMismatch):
        g.reduce(vec[:-1])


def test_psi_builds_each_coordinate_once(a2):
    """Over all of BF_2, equal coordinates are one Fraction object, and the
    group's table holds at most L = 15 of them."""
    g = BFGroup(a2, 2)
    coords = [c for e in elements(g) for c in psi(e).coords]
    assert len({id(c) for c in coords}) == len(set(coords)) <= g._level.psi_map[1]
    assert len(g._level.coords) == len(set(coords))
    # (A^2 - I)^-1 (1, 0) = (9, -6) / 45
    assert psi(g.reduce((1, 0))).coords == (Fraction(1, 5), Fraction(13, 15))


@st.composite
def bond_cases(draw):
    """A rank 1-4 integer matrix, levels i | j <= 6 and an integer vector."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    a = IntMatrix(tuple(tuple(r) for r in draw(st.lists(row, min_size=dim, max_size=dim))))
    i = draw(st.integers(1, 6))
    j = i * draw(st.integers(1, 6 // i))
    vec = tuple(draw(st.lists(st.integers(-50, 50), min_size=dim, max_size=dim)))
    return a, i, j, vec


@settings(max_examples=120, deadline=None)
@given(bond_cases())
@example((IntMatrix(((3, 1), (1, 3))), 1, 2, (1, 0)))
@example((IntMatrix(((3, 1), (1, 3))), 3, 6, (4, -7)))
@example((IntMatrix(((2, 1), (1, 1))), 2, 6, (1, 1)))
@example((IntMatrix(((5,),)), 2, 4, (3,)))
def test_upsilon_matches_the_c_matrix_route(case):
    """upsilon through Psi against the class of C U_i^-1 r in BF_j, with
    A^j - I = C (A^i - I) and U_i^-1 the Bareiss inverse of BF_i's row
    transform: the same class, and the same torus point as e."""
    a, i, j, vec = case
    try:
        g = BFGroup(a, i)
    except RootOfUnitySpectrum:
        assume(False)
    e = g.reduce(vec)
    c = c_matrix(a, i, j)
    assert c * (a ** i - IntMatrix.identity(a.dim)) == a ** j - IntMatrix.identity(a.dim)
    y = upsilon(e, j)
    assert y == BFGroup(a, j).reduce(c.apply(representative(e)))
    assert psi(y) == psi(e)
    if j > i:
        with pytest.raises(NotDivisible):
            c_matrix(a, j, i)


def test_upsilon_refuses_a_level_that_i_does_not_divide(a2):
    e = BFGroup(a2, 2).reduce((1, 0))
    with pytest.raises(NotDivisible, match="2 does not divide 3"):
        upsilon(e, 3)


def test_integer_arguments_are_not_truncated(a2):
    """Levels and coordinates go through operator.index: a float, a Fraction
    or a string raises a TypeError naming the argument, where int() used to
    truncate or parse it; ints, bools and numpy ints still pass."""
    g = BFGroup(a2, 2)
    for bad in [(1.5, 0), (Fraction(7, 2), 0), ("3", 0)]:
        with pytest.raises(TypeError, match="coordinate must be an integer"):
            g.reduce(bad)
    with pytest.raises(TypeError, match="coordinate must be an integer"):
        BFElement(g, (Fraction(1, 2), 0))
    with pytest.raises(TypeError, match="k must be an integer, got 2.5"):
        BFGroup(a2, 2.5)
    e = BFGroup(a2, 1).reduce((1, 0))
    with pytest.raises(TypeError, match="j must be an integer, got 4.0"):
        upsilon(e, 4.0)
    assert g.reduce((True, np.int64(0))) == g.reduce((1, 0))
    assert BFElement(g, (np.int64(1), False)) == BFElement(g, (1, 0))
    assert type(BFElement(g, (np.int64(1), False)).r[0]) is int
    assert BFGroup(a2, np.int64(2)) == g and BFGroup(a2, True) == BFGroup(a2, 1)
    assert upsilon(e, np.int64(2)) == upsilon(e, 2)


def test_torus_point_takes_rational_coordinates_only():
    with pytest.raises(TypeError, match="torus coordinate"):
        TorusPoint((0.1, Fraction(7, 3)))
    with pytest.raises(TypeError, match="torus coordinate"):
        TorusPoint((Fraction(1, 3), "7/3"))
    p = TorusPoint((np.int64(3), Fraction(7, 3), True, -1))
    assert p.coords == (0, Fraction(1, 3), 0, 0) and all(type(c) is Fraction for c in p.coords)


def test_module_doctests():
    result = doctest.testmod(bf)
    assert result.attempted > 0 and result.failed == 0
