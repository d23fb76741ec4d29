import random
import string
import time
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgedyn import (
    BudgetExceeded,
    DimensionMismatch,
    Endomorphism,
    IntMatrix,
    NontrivialHomologyAction,
    TightMap,
    hull_vertices,
    minimal_loops,
    rotation_set,
)
from wedgedyn.cli import main
from wedgedyn.rotation import _feasible_combination, _hull_general

from oracles import (
    canonical_loop,
    eigen_rotation_number,
    feasible_combination_fractions,
    periodic_rotation_vector,
    point_in_hull,
    vectors,
)

MAPS = Path(__file__).resolve().parent.parent / "maps"

F = Fraction


def test_transition_entries_phi1(phi1):
    assert set(vectors(phi1, 0, 0)) == {(0, 0), (1, 0), (1, 1)}
    assert set(vectors(phi1, 1, 0)) == {(1, 0), (2, 0)}
    assert set(vectors(phi1, 0, 1)) == {(-1, -1), (-1, 1)}
    assert set(vectors(phi1, 1, 1)) == {(0, -1), (-1, 0), (-1, -1)}
    for j in range(2):
        assert sum(len(vectors(phi1, i, j)) for i in range(2)) == phi1.speeds[j] == 5


def test_transition_requires_trivial_action(phi2, capsys):
    with pytest.raises(NontrivialHomologyAction, match="rotation sets need abelianization = I"):
        rotation_set(phi2)
    assert main(["rotset", str(MAPS / "phi2.map")]) == 1
    assert "abelianization = I" in capsys.readouterr().err


def test_transition_identity_map():
    ident = TightMap(Endomorphism.from_strings(2, "a", "b"))
    assert vectors(ident, 0, 0) == ((0, 0),)
    assert vectors(ident, 1, 1) == ((0, 0),)
    assert vectors(ident, 0, 1) == ()
    loops = minimal_loops(ident)
    assert len(loops) == 2
    assert all(l.length == 1 for l in loops)


def test_minimal_loops_phi1(phi1):
    loops = minimal_loops(phi1)
    assert len(loops) == 10
    lengths = sorted(l.length for l in loops)
    assert lengths == [1] * 6 + [2] * 4
    length1 = {l.rotation_vector() for l in loops if l.length == 1}
    assert length1 == {(F(0), F(0)), (F(1), F(0)), (F(1), F(1)),
                       (F(0), F(-1)), (F(-1), F(0)), (F(-1), F(-1))}
    length2 = {l.rotation_vector() for l in loops if l.length == 2}
    assert length2 == {(F(0), F(-1, 2)), (F(0), F(1, 2)),
                       (F(1, 2), F(-1, 2)), (F(1, 2), F(1, 2))}


def test_minimal_loops_budget(phi1):
    with pytest.raises(BudgetExceeded):
        minimal_loops(phi1, budget=3)


def test_rotation_set_phi1(phi1):
    rep = rotation_set(phi1)
    assert rep.hull_vertices == ((-1, -1), (0, -1), (1, 0), (1, 1), (-1, 0))
    assert len(rep.loop_vectors) == 10
    assert set(rep.fixed_point_vectors) == {
        (F(0), F(0)), (F(1), F(0)), (F(1), F(1)),
        (F(0), F(-1)), (F(-1), F(0)), (F(-1), F(-1))}
    assert set(rep.period2_vectors) == {
        (F(0), F(-1, 2)), (F(0), F(1, 2)), (F(1, 2), F(-1, 2)), (F(1, 2), F(1, 2))}
    for _, v in rep.loop_vectors:
        assert point_in_hull(v, rep.hull_vertices)


def test_hull_simple_cases():
    sq = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1, 2), F(1, 2))]
    assert set(hull_vertices(sq)) == {(0, 0), (1, 0), (1, 1), (0, 1)}
    assert hull_vertices([(F(2), F(2))]) == ((2, 2),)
    # collinear points collapse to the two ends
    line = [(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]
    assert set(hull_vertices(line)) == {(0, 0), (2, 2)}
    # 1-d: one point, a range, duplicates
    assert hull_vertices([(F(3, 2),)]) == ((F(3, 2),),)
    assert hull_vertices([(F(1),), (F(-2),), (F(1, 2),), (F(3),)]) == ((-2,), (3,))
    assert hull_vertices([(F(1),), (F(1),)]) == ((1,),)
    assert hull_vertices([(F(2),), (F(-1),), (F(2),), (F(-1),)]) == ((-1,), (2,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=1, max_size=8))
def test_hull_1d_matches_lp_filter(xs):
    pts = [(x,) for x in xs]
    assert hull_vertices(pts) == _hull_general(pts)


def test_hull_1d_is_a_sort():
    # the LP filter needs about a minute for these 200 points; min and max do not
    pts = [(F(i, 7),) for i in range(-100, 100)]
    random.Random(3).shuffle(pts)
    start = time.perf_counter()
    assert hull_vertices(pts) == ((F(-100, 7),), (F(99, 7),))
    assert time.perf_counter() - start < 0.5


def test_point_in_hull():
    hull = ((-1, -1), (0, -1), (1, 0), (1, 1), (-1, 0))
    assert point_in_hull((F(0), F(0)), hull)
    assert point_in_hull((F(1), F(1)), hull)  # vertex
    assert point_in_hull((F(1, 2), F(0)), hull)  # edge
    assert not point_in_hull((F(2), F(0)), hull)
    assert not point_in_hull((F(0), F(3, 4)), hull)
    # 1-d range, segment, single point, empty hull
    assert point_in_hull((F(1, 2),), ((-1,), (2,)))
    assert point_in_hull((F(2),), ((-1,), (2,)))
    assert not point_in_hull((F(-3, 2),), ((-1,), (2,)))
    segment = ((0, 0), (2, 1))
    assert point_in_hull((F(1), F(1, 2)), segment)
    assert point_in_hull((F(2), F(1)), segment)
    assert not point_in_hull((F(1), F(0)), segment)
    assert not point_in_hull((F(4), F(2)), segment)
    assert point_in_hull((F(1), F(-1)), ((1, -1),))
    assert not point_in_hull((F(1), F(0)), ((1, -1),))
    assert not point_in_hull((F(0), F(0)), ())


@pytest.mark.parametrize("points", [
    [(1,), (0, 0)],                    # the 1-D branch, by the first point
    [(0, 0), (1,), (2, 2)],            # the 2-D branch
    [(0, 0, 0), (1, 0, 0), (1, 1)],    # the LP branch
    [(0, 0, 0), (1, 0, 0, 0)],
])
def test_hull_vertices_rejects_points_of_mixed_length(points):
    with pytest.raises(DimensionMismatch, match="points differ in length"):
        hull_vertices(points)


def test_hull_of_no_points_is_empty():
    assert hull_vertices([]) == ()


def test_hull_lp_rejects_float_coordinates():
    """One float anywhere is refused in every branch, the 1-D sort and the
    2-D chain as well as the LP filter, where the float used to come back
    as a vertex; ints, bools and numpy ints come back as Fractions."""
    for points in ([(0.5,), (1,)], [(F(1, 2),), (1.0,)],
                   [(0.5, 0), (1, 1), (0, 1)], [(0, 0), (1, 1), (0, 1.0)],
                   [(0, 0, 0), (1, 0, 0), (0.5, 0.5, 1)]):
        with pytest.raises(TypeError, match=r"hull coordinate must be numbers\.Rational"):
            hull_vertices(points)
    hull = hull_vertices([(True, 0), (0, np.int64(0)), (F(1, 2), 1)])
    assert hull == ((0, 0), (1, 0), (F(1, 2), 1))
    assert all(type(x) is F for v in hull for x in v)
    assert hull_vertices([(np.int64(2),), (F(1, 2),)]) == ((F(1, 2),), (2,))


@st.composite
def _rational_point_sets(draw):
    """(target, points) in dimension 1-4: rational coordinates of either
    sign, repeated points, and a target that is often one of the points."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[st.fractions(-4, 4, max_denominator=5)] * dim)
    pts = draw(st.lists(point, min_size=1, max_size=7))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    target = draw(st.one_of(st.sampled_from(pts), point))
    return target, pts


@settings(max_examples=300, deadline=None)
@given(_rational_point_sets())
def test_integer_lp_matches_fraction_oracle(case):
    target, pts = case
    assert _feasible_combination(target, pts) == feasible_combination_fractions(target, pts)
    distinct = sorted(set(pts))
    every_other = [p for i, p in enumerate(distinct)
                   if not feasible_combination_fractions(p, distinct[:i] + distinct[i + 1:])]
    assert sorted(hull_vertices(pts)) == every_other


def test_closed_walk_oracle(phi1):
    """Brute-force closed walks up to length 5 give vectors inside the hull."""
    rep = rotation_set(phi1)
    occ = {
        (i, j): vectors(phi1, i, j) for i in range(2) for j in range(2)
    }
    for length in range(1, 6):
        for nodes in product(range(2), repeat=length):
            path_nodes = nodes + (nodes[0],)
            choices = [occ[(path_nodes[s + 1], path_nodes[s])] for s in range(length)]
            if any(not c for c in choices):
                continue
            for combo in product(*choices):
                total = [sum(v[i] for v in combo) for i in range(2)]
                vec = (F(total[0], length), F(total[1], length))
                assert point_in_hull(vec, rep.hull_vertices)


def test_periodic_rotation_vector(phi1):
    pts = phi1.periodic_points(1)
    for p in pts:
        v = periodic_rotation_vector(phi1, p)
        assert v == tuple(F(x) for x in p.translation)
        assert point_in_hull(v, rotation_set(phi1).hull_vertices)


def test_periodic_vectors_inside_hull(phi1):
    hull = rotation_set(phi1).hull_vertices
    for k in range(1, 5):
        for p in phi1.periodic_points(k):
            v = tuple(F(x, k) for x in p.translation)
            assert point_in_hull(v, hull)


def test_eigen_rotation_number(phi1):
    p = phi1.periodic_points(1)[1]
    v = (1, 0)
    rho = eigen_rotation_number(phi1, p, v)
    assert rho == p.translation[0]
    # A = [[2, 0], [1, 1]] fixes v = (1, -1) under its transpose
    m = TightMap(Endomorphism.from_strings(2, "aba", "abA"))
    assert m.A == IntMatrix(((2, 0), (1, 1)))
    pts = [p for k in (1, 2, 3) for p in m.periodic_points(k)]
    rhos = {eigen_rotation_number(m, p, (F(1), np.int64(-1))) for p in pts}
    assert rhos == {eigen_rotation_number(m, p, (1, -1)) for p in pts}
    assert len(rhos) > 1


def _loops_by_vertex_orders(m, budget):
    """Every vertex order tried in turn (combinations times permutations),
    each loop rotated to its least rotation and deduplicated; the arc
    src -> dst takes the slots of psi(src) whose generator is dst."""
    b = m.rank
    loops, count = set(), 0
    for size in range(1, b + 1):
        for nodes in combinations(range(b), size):
            for perm in permutations(nodes[1:]):
                order = (nodes[0],) + perm
                steps = [[(src, dst, slot.offset, i) for i, slot in enumerate(m.slots[src])
                          if slot.generator == dst]
                         for src, dst in zip(order, order[1:] + order[:1])]
                for combo in product(*steps):
                    count += 1
                    if count > budget:
                        raise BudgetExceeded("oracle")
                    loops.add(canonical_loop(combo))
    return sorted(loops, key=lambda l: (l.length, l.transitions))


@st.composite
def _identity_action_maps(draw):
    """A rank 1-4 map acting as the identity on homology: psi(a_j) is
    u a_j v with v a rearrangement of the inverse letters of u."""
    rank = draw(st.integers(1, 4))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = []
    for j in range(rank):
        u = draw(st.text(alphabet=alphabet, max_size=4))
        v = draw(st.permutations(u.swapcase()))
        rules.append(u + alphabet[j] + "".join(v))
    return TightMap(Endomorphism.from_strings(rank, *rules))


@settings(max_examples=120, deadline=None)
@given(_identity_action_maps())
def test_minimal_loops_match_vertex_order_oracle(m):
    want = _loops_by_vertex_orders(m, 10 ** 6)
    assert minimal_loops(m) == want
    assert len(minimal_loops(m, budget=len(want))) == len(want)
    if want:
        with pytest.raises(BudgetExceeded):
            minimal_loops(m, budget=len(want) - 1)


def test_loop_walk_skips_vertices_that_cannot_return():
    """a -> bc...t a T...CB, b -> c...t b T...C, ...: each generator conjugated
    by all later ones, so A = I and every arc but the self-loops goes up.
    Each vertex reaches only later ones, so the walk from it tries no
    vertex order beyond itself; trying every simple path instead doubles
    the work per rank."""
    rank = 20
    gens = string.ascii_lowercase[:rank]
    rules = [gens[j + 1:] + gens[j] + gens[j + 1:][::-1].upper() for j in range(rank)]
    m = TightMap(Endomorphism.from_strings(rank, *rules))
    start = time.perf_counter()
    loops = minimal_loops(m)
    elapsed = time.perf_counter() - start
    assert [(l.length, l.transitions[0][:2]) for l in loops] == [(1, (j, j)) for j in range(rank)]
    assert elapsed < 0.5


def test_rank4_hull_on_integer_pivots():
    """A rank-4 map with A = I: 376 minimal loops with 213 distinct vectors
    and 14 hull vertices, taken from the Fraction-tableau LP filter, which
    needs about a minute for them."""
    m = TightMap(Endomorphism.from_strings(4, "BdaDbaBabAA", "ADAbadabbAdBBDa",
                                           "bcBBcAbCa", "baCdcABBDAbad"))
    start = time.perf_counter()
    rep = rotation_set(m)
    elapsed = time.perf_counter() - start
    assert len(rep.loop_vectors) == 376
    assert len({v for _, v in rep.loop_vectors}) == 213
    want = ["-2 0 0 -1", "-1 0 1 0", "-1 1 0 1", "-1 2 0 1", "-1/2 -1 0 0",
            "-1/3 1/3 1/3 -1/3", "0 -1 0 1", "0 -1 1 0", "0 2 0 0", "1/2 -1/2 0 -1/2",
            "1/2 0 0 -1/2", "1 1 -1 0", "2 -1 0 0", "2 0 0 0"]
    assert rep.hull_vertices == tuple(tuple(F(x) for x in v.split()) for v in want)
    assert elapsed < 5
