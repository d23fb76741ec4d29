import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wedgedyn import (
    AdaptedNormUnavailable,
    BudgetExceeded,
    Chart,
    Endomorphism,
    LipschitzNormData,
    NotExpanding,
    TightMap,
    TorusPoint,
    WedgedynError,
    Word,
    beta_breakpoints,
    cover_point,
    holder_bound,
    iota,
    shadow_pairs,
    tail_bound,
)
from wedgedyn.intmat import IntMatrix, kernel, rat_inverse
from wedgedyn.semiconj import (
    _cells,
    _depth0,
    _far_gate,
    _near_children,
    _preimages_intersect,
    _same_origin,
    _touch,
)
from wedgedyn.words import Letter

from oracles import kappa, phi_apply, shadow_depths, tight_maps

F = Fraction


def _beta_oracle(m, cp, k):
    """beta at a level-k breakpoint is A^-k applied to the lattice point its
    k-th lifted image lands on."""
    img = m.lift_iter(cp, k)
    assert img.point.t in (0, 1)
    n = iota(img)
    ainv, den = rat_inverse(m.A ** k)
    return tuple(F(sum(ainv.rows[i][j] * n[j] for j in range(m.rank)), den)
                 for i in range(m.rank))


def test_kappa_columns(phi2):
    # A2^-1 = (1/8) [[3,-1],[-1,3]]
    assert kappa(phi2, Letter(0, 1), 1) == (F(3, 8), F(-1, 8))
    assert kappa(phi2, Letter(1, 1), 1) == (F(-1, 8), F(3, 8))
    assert kappa(phi2, Letter(0, -1), 1) == (F(-3, 8), F(1, 8))


def test_kappa_needs_expanding(phi1):
    with pytest.raises(NotExpanding):
        kappa(phi1, Letter(0, 1), 1)


def test_negative_level_refused(phi2):
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
        kappa(phi2, Letter(0, 1), -1)
    with pytest.raises(ValueError, match=r"^k must be >= 0, got -2$"):
        beta_breakpoints(phi2, -2)
    # level 0 is the edge itself, the level tau_0 bounds
    assert kappa(phi2, Letter(1, -1), 0) == (0, -1)
    assert beta_breakpoints(phi2, 0).values == (((0, 0), (1, 0)), ((0, 0), (0, 1)))


def test_beta_budget_is_the_row_count(phi2):
    """phi2 at level 2: 2 * (16 + 1) = 34 rows, admitted by a budget of 34
    and refused by 33; level 10^9 is refused without computing 4^(10^9)."""
    assert beta_breakpoints(phi2, 2, budget=34).values == beta_breakpoints(phi2, 2).values
    with pytest.raises(BudgetExceeded, match="^more than 33 beta rows at level 2$"):
        beta_breakpoints(phi2, 2, budget=33)
    with pytest.raises(BudgetExceeded):
        beta_breakpoints(phi2, 10 ** 9, budget=200000)
    with pytest.raises(ValueError, match="^budget must be >= 0, got -1$"):
        beta_breakpoints(phi2, 2, budget=-1)
    # M = 2 is the slowest growth: 2^k + 1 rows pass 1000 from k = 10 on
    doubling = TightMap(Endomorphism.from_strings(1, "aa"))
    for k in range(1, 15):
        if 2 ** k + 1 <= 1000:
            assert len(beta_breakpoints(doubling, k, budget=1000).values[0]) == 2 ** k + 1
        else:
            with pytest.raises(BudgetExceeded):
                beta_breakpoints(doubling, k, budget=1000)


def test_beta_level1_phi2(phi2):
    ap = beta_breakpoints(phi2, 1)
    assert ap.level == 1 and ap.M == 4
    a_vals = ap.values[0]
    assert a_vals == (
        (F(0), F(0)),
        (F(3, 8), F(-1, 8)),
        (F(3, 4), F(-1, 4)),
        (F(9, 8), F(-3, 8)),
        (F(1), F(0)),
    )
    b_vals = ap.values[1]
    assert b_vals[0] == (F(0), F(0))
    assert b_vals[-1] == (F(0), F(1))


def test_beta_level2_companion_values(phi2):
    ap = beta_breakpoints(phi2, 2)
    a_vals = ap.values[0]
    assert len(a_vals) == 17
    assert a_vals[4] == (F(3, 8), F(-1, 8))    # t = 1/4
    assert a_vals[5] == (F(17, 32), F(-7, 32))  # t = 5/16


def test_beta_matches_lift_oracle(phi2):
    for k in (1, 2):
        ap = beta_breakpoints(phi2, k)
        mk = 4 ** k
        for e in range(2):
            for i in range(mk + 1):
                cp = cover_point(e, F(i, mk), (0, 0))
                assert ap.values[e][i] == _beta_oracle(phi2, cp, k)


def test_beta_refinement(phi2):
    """Level k values reappear at level k+1 (indices scale by M)."""
    ap1 = beta_breakpoints(phi2, 1)
    ap2 = beta_breakpoints(phi2, 2)
    for e in range(2):
        for i in range(5):
            assert ap1.values[e][i] == ap2.values[e][4 * i]


def _expanding(m):
    """m, when its abelianization is expanding; hypothesis draws again if not."""
    assume(m.spectral.is_expanding)
    return m


@settings(max_examples=40, deadline=None)
@given(tight_maps().map(_expanding), st.integers(0, 3))
@example(TightMap(Endomorphism.from_strings(2, "aaB", "bbab")), 2)  # B.b cancels at depth 2
def test_beta_rows_match_lift_oracle_on_every_expanding_map(m, k):
    """On any expanding map, cancelling images included, each t column
    climbs strictly from 0 to M^k, M the lcm of the speeds, each row is
    A^-k applied to the lattice point that the k-th lifted image of its
    breakpoint lands on, and the budget admits exactly the rank plus the
    number of depth-k letters."""
    ap = beta_breakpoints(m, k)
    scale = math.lcm(*m.speeds) ** k
    assert ap.M == math.lcm(*m.speeds)
    zero = (0,) * m.rank
    for e, (t, rows) in enumerate(zip(ap.t, ap.values)):
        assert t[0] == 0 and t[-1] == scale and all(map(operator.lt, t, t[1:]))
        assert rows == tuple(_beta_oracle(m, cover_point(e, F(u, scale), zero), k) for u in t)
    rows = sum(map(len, ap.values))
    assert rows == m.rank + sum(next(itertools.islice(m.letter_counts(), k, None)))
    assert beta_breakpoints(m, k, budget=rows).values == ap.values
    with pytest.raises(BudgetExceeded):
        beta_breakpoints(m, k, budget=rows - 1)


@settings(max_examples=40, deadline=None)
@given(tight_maps().map(_expanding), st.integers(1, 3))
def test_beta_refines_on_every_expanding_map(m, k):
    """Every level-(k-1) breakpoint reappears at level k, at the same
    parameter (numerators scale by M) and with the same beta row."""
    coarse, fine = beta_breakpoints(m, k - 1), beta_breakpoints(m, k)
    for e in range(m.rank):
        rows = dict(zip(fine.t[e], fine.values[e]))
        for u, row in zip(coarse.t[e], coarse.values[e]):
            assert rows[u * fine.M] == row


def test_beta_deck_translation(phi2):
    """Translating the base by n translates the oracle value by n."""
    for e in range(2):
        for i in range(5):
            cp0 = cover_point(e, F(i, 4), (0, 0))
            cpn = cover_point(e, F(i, 4), (2, -1))
            v0 = _beta_oracle(phi2, cp0, 1)
            vn = _beta_oracle(phi2, cpn, 1)
            assert vn == (v0[0] + 2, v0[1] - 1)


def test_beta_equivariance(phi2):
    """A . beta(x) equals beta-tilde of the lifted image of x."""
    ap1 = beta_breakpoints(phi2, 1)
    ap2 = beta_breakpoints(phi2, 2)
    for e in range(2):
        for i in range(17):
            cp = cover_point(e, F(i, 16), (0, 0))
            img = phi2.lift_eval(cp)
            # the image parameter is a level-1 breakpoint j/4 on the image edge
            j = img.point.t * 4
            assert j.denominator == 1
            base_beta = ap1.values[img.point.edge][int(j)]
            img_beta = tuple(b + n for b, n in zip(base_beta, img.base))
            x_beta = ap2.values[e][i]
            ax = tuple(sum(phi2.A.rows[r][c] * x_beta[c] for c in range(2))
                       for r in range(2))
            assert ax == img_beta


def test_semiconjugacy_mod_one(phi2):
    """pi(beta) intertwines f with the torus endomorphism at breakpoints."""
    ap2 = beta_breakpoints(phi2, 2)
    ap1 = beta_breakpoints(phi2, 1)
    for e in range(2):
        for i in range(17):
            cp = cover_point(e, F(i, 16), (0, 0))
            img = phi2.lift_eval(cp)
            j = int(img.point.t * 4)
            lhs = phi_apply(phi2.A, TorusPoint(ap2.values[e][i]))
            rhs = TorusPoint(ap1.values[img.point.edge][j])
            assert lhs == rhs


def test_tail_bounds(phi2, phi3):
    assert tail_bound(phi2, 0) == F(3, 4)
    assert tail_bound(phi2, 1) == F(3, 8)
    assert tail_bound(phi2, 3) == F(3, 32)
    assert tail_bound(phi3, 0) == F(3, 28)
    assert tail_bound(phi3, 0) <= F(1, 4)
    assert tail_bound(phi3, 2) == F(3, 700)
    sup = phi2.sigma_report(norm="sup").delta
    assert sup > 0


def test_periodic_point_convergence(phi2):
    """Normalized lifted orbits of a fixed point converge to its alpha-like
    limit (A - I)^-1 Delta at rate tau_n."""
    p = next(q for q in phi2.periodic_points(1)
             if q.point.edge == 0 and q.point.t == F(1, 3))
    shifted = phi2.A - IntMatrix.identity(2)
    inv, den = rat_inverse(shifted)
    lim = tuple(F(x, den) for x in inv.apply(p.translation))
    cp = cover_point(0, F(1, 3), (0, 0))
    for n in range(1, 6):
        img = phi2.lift_iter(cp, n)
        coords = iota(img)
        ainv, den = rat_inverse(phi2.A ** n)
        approx = tuple(F(sum(ainv.rows[i][j] * coords[j] for j in range(2)), den)
                       for i in range(2))
        err = max(abs(a - l) for a, l in zip(approx, lim))
        assert err <= tail_bound(phi2, n)


def test_beta_runs_on_mixed_speeds():
    """Speeds 4 and 3: M = 12, the breakpoints of a are the quarters and
    those of b the thirds, each row is the lift oracle's, and the budget
    counts rank + 1^T T 1 = 2 + 7 rows."""
    m = TightMap(Endomorphism.from_strings(2, "aaab", "bba"))
    assert m.endo.uniform_expansion() is None
    ap = beta_breakpoints(m, 1, budget=9)
    assert ap.M == 12 and ap.t == ((0, 3, 6, 9, 12), (0, 4, 8, 12))
    for e, (t, rows) in enumerate(zip(ap.t, ap.values)):
        assert rows == tuple(_beta_oracle(m, cover_point(e, F(u, 12), (0, 0)), 1) for u in t)
    with pytest.raises(BudgetExceeded, match="^more than 8 beta rows at level 1$"):
        beta_breakpoints(m, 1, budget=8)


def test_beta_needs_expanding(phi1):
    with pytest.raises(NotExpanding):
        beta_breakpoints(phi1, 1)


class ComplexOrSmallEigenvalue(WedgedynError):
    """An eigenvalue argument must be real with modulus > 1."""


def beta_mu(m, approx, mu):
    """Projection of the breakpoint table onto an expanding eigenline of A^T.

    mu must be an exact rational eigenvalue with |mu| > 1; the eigenvector
    is computed exactly and normalized to a primitive integer vector.
    Returns one tuple of scalars per edge.
    """
    mu = Fraction(mu)
    if abs(mu) <= 1:
        raise ComplexOrSmallEigenvalue(f"|mu| must exceed 1, got {mu}")
    # ker(A^T - mu I) = ker(q A^T - p I) for mu = p / q
    p, q = mu.numerator, mu.denominator
    basis = kernel(q * m.A.transpose() - p * IntMatrix.identity(m.rank))
    if not basis:
        raise ComplexOrSmallEigenvalue(f"{mu} is not a rational eigenvalue of A^T")
    v = basis[0]
    return tuple(tuple(sum(Fraction(a) * b for a, b in zip(v, val)) for val in edge_vals)
                 for edge_vals in approx.values)


def test_beta_mu_projection(phi2):
    ap = beta_breakpoints(phi2, 1)
    proj = beta_mu(phi2, ap, 4)
    # eigenvector of A^T for mu=4 is (1,1), so the projection sums coordinates
    for e in range(2):
        for i, val in enumerate(ap.values[e]):
            assert proj[e][i] == val[0] + val[1]
    # mu=2 eigenvector is (1,-1)
    proj2 = beta_mu(phi2, ap, 2)
    for e in range(2):
        for i, val in enumerate(ap.values[e]):
            assert proj2[e][i] == val[0] - val[1]


def test_beta_mu_rejects_bad_mu(phi2):
    ap = beta_breakpoints(phi2, 1)
    with pytest.raises(ComplexOrSmallEigenvalue):
        beta_mu(phi2, ap, 1)
    with pytest.raises(ComplexOrSmallEigenvalue):
        beta_mu(phi2, ap, 3)


def test_holder_bound_needs_an_expanding_map(phi1):
    assert phi1.A == IntMatrix.identity(2)
    with pytest.raises(NotExpanding, match="expanding abelianization"):
        holder_bound(phi1)


def test_holder_bounds(phi2, phi3):
    assert holder_bound(phi2) == F(1, 2)
    h = holder_bound(phi3)
    # certified lower bound for log5/log7, within 1e-6
    assert 7 ** h.numerator < 5 ** h.denominator
    import math

    true = math.log(5) / math.log(7)
    assert true - 1e-6 < h <= true + 1e-12


def _simplest_in(lo, hi):
    """A fraction of least denominator in [lo, hi]."""
    for q in itertools.count(1):
        p = -(-lo.numerator * q // lo.denominator)
        if F(p, q) <= hi:
            return F(p, q)


@pytest.mark.parametrize("a_image, want", [("a" * 99 + "B", None),
                                           ("a" * 29 + "B", F(76, 7357)),
                                           ("a" * 9 + "B", F(152, 2927))])
def test_holder_bound_of_a_small_ratio(a_image, want):
    """log lambda / log L is about 0.0022 for a -> a^99 B, b -> ab, below
    1/200: the walk leaves 0/1 all the same, with a positive p/q such that
    L^p <= lambda^q, and a fraction u in [p/q + 1e-7, p/q + 1e-6] with
    L^u_p > lambda^u_q shows the ratio is below p/q + 1e-6. All exact. The
    same map with images of length 30 and 10 keeps its bound."""
    m = TightMap(Endomorphism.from_strings(2, a_image, "ab"))
    h, lam, big_l = holder_bound(m), m.spectral.lambda_lower, max(m.speeds)
    assert h > 0 and F(big_l) ** h.numerator <= lam ** h.denominator
    u = _simplest_in(h + F(1, 10 ** 7), h + F(1, 10 ** 6))
    assert F(big_l) ** u.numerator > lam ** u.denominator
    assert want is None or h == want


def test_holder_bound_is_one_when_lambda_reaches_the_speed():
    # A = 2I expands by 2 and both edges have speed 2
    m = TightMap(Endomorphism.from_strings(2, "aa", "bb"))
    assert m.spectral.lambda_lower == 2
    assert holder_bound(m) == 1


def test_shadow_phi2_not_injective(phi2):
    for norm in ("adapted", "sup"):
        cert = shadow_pairs(phi2, depth=12, norm=norm)
        assert cert.status == "NOT_INJECTIVE"
        assert cert.depth == 1
        cp1, cp2 = cert.witness
        assert cp1 != cp2
        k = cert.depth
        assert phi2.lift_iter(cp1, k) == phi2.lift_iter(cp2, k)


def test_shadow_phi3_injective(phi3):
    for norm in ("adapted", "sup"):
        cert = shadow_pairs(phi3, depth=12, norm=norm)
        assert cert.status == "CERTIFIED_INJECTIVE"
        assert cert.depth == 1
        assert cert.witness is None


def test_shadow_grid_oracle(phi2, phi3):
    """Brute-force level-2 breakpoint collisions agree with the verdicts."""

    def collisions(m):
        mexp = m.speeds[0]
        seen = {}
        hits = []
        for e in range(m.rank):
            for b0 in range(-1, 2):
                for b1 in range(-1, 2):
                    for i in range(mexp ** 2 + 1):
                        cp = cover_point(e, F(i, mexp ** 2), (b0, b1))
                        img = m.lift_iter(cp, 2)
                        key = img
                        if key in seen and seen[key] != cp:
                            other = seen[key]
                            # skip the shared wedge vertex identifications
                            if cp.point.t in (0, 1) and other.point.t in (0, 1):
                                continue
                            hits.append((other, cp))
                        else:
                            seen[key] = cp
        return hits

    assert collisions(phi2)
    assert not collisions(phi3)


def test_shadow_budget(phi3):
    with pytest.raises(BudgetExceeded):
        shadow_pairs(phi3, depth=6, max_cells=1)


def test_shadow_unknown(phi3):
    cert = shadow_pairs(phi3, depth=0)
    assert cert.status == "UNKNOWN"
    assert cert.witness is None


def _box_min_oracle(g, e1, e2, c):
    """min of w^T g w over w = c + t e_e1 - u e_e2, (t, u) in [0,1]^2, over
    the candidates of a convex quadratic: the interior critical point when
    feasible, the clamped minimiser on each edge, and the four corners."""

    def val(t, u):
        w = [F(x) for x in c]
        w[e1] += t
        w[e2] -= u
        return sum(w[i] * g[i][j] * w[j] for i in range(len(w)) for j in range(len(w)))

    # val(t, u) = f00 + a t + b u + A t^2 + B u^2 + C t u
    f00 = val(0, 0)
    big_a, big_b = g[e1][e1], g[e2][e2]
    a = val(1, 0) - f00 - big_a
    b = val(0, 1) - f00 - big_b
    big_c = val(1, 1) - val(1, 0) - val(0, 1) + f00
    cands = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for x in (0, 1):
        cands.append((x, min(F(1), max(F(0), -(b + big_c * x) / (2 * big_b)))))
        cands.append((min(F(1), max(F(0), -(a + big_c * x) / (2 * big_a))), x))
    det = 4 * big_a * big_b - big_c * big_c
    if det != 0:
        t = (big_c * b - 2 * big_b * a) / det
        u = (big_c * a - 2 * big_a * b) / det
        if 0 <= t <= 1 and 0 <= u <= 1:
            cands.append((t, u))
    return min(val(t, u) for t, u in cands)


def _sup_oracle(e1, n1, e2, n2):
    """Sup-norm distance of two boxes: the widest coordinate interval gap."""
    gap = F(0)
    for i in range(len(n1)):
        lo1, hi1 = n1[i], n1[i] + (i == e1)
        lo2, hi2 = n2[i], n2[i] + (i == e2)
        gap = max(gap, F(lo1 - hi2), F(lo2 - hi1))
    return gap * gap


@st.composite
def gate_cases(draw):
    b = draw(st.integers(2, 4))
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    vec = st.tuples(*[st.integers(-4, 4)] * b)
    # B^T B plus a positive diagonal is positive definite
    rows = [[draw(frac) for _ in range(b)] for _ in range(b)]
    diag = [draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))
            for _ in range(b)]
    gram = tuple(tuple(sum(r[i] * r[j] for r in rows) + (diag[i] if i == j else 0)
                       for j in range(b)) for i in range(b))
    # a norm holds its Gram form as an integer matrix over one denominator,
    # not necessarily the least one; lam and radius play no part in the gate
    scale = math.lcm(*(x.denominator for r in gram for x in r)) * draw(st.integers(1, 3))
    pair = (IntMatrix(tuple(tuple(int(x * scale) for x in r) for r in gram)), scale)
    norm = LipschitzNormData(kind="eigenbasis", gram=pair, lam=F(2), radius=1)
    e1, e2 = draw(st.integers(0, b - 1)), draw(st.integers(0, b - 1))
    n1, n2, shift = draw(vec), draw(vec), draw(vec)
    # theta^2 as a multiple of the squared distance, so both verdicts occur;
    # a ratio of 1 puts theta on the distance itself, which is not beyond it
    ratio = draw(st.one_of(st.just(F(1)), st.fractions(min_value=F(1, 10), max_value=3,
                                                       max_denominator=20)))
    return gram, norm, e1, n1, e2, n2, shift, ratio


@settings(max_examples=300, deadline=None)
@given(gate_cases())
def test_far_gate_matches_fraction_oracle(case):
    gram, norm, e1, n1, e2, n2, shift, ratio = case
    c = tuple(x - y for x, y in zip(n1, n2))
    moved1 = tuple(x + v for x, v in zip(n1, shift))
    moved2 = tuple(x + v for x, v in zip(n2, shift))
    sup = LipschitzNormData(kind="sup", gram=None, lam=F(2), radius=1)
    for nd, dist2 in ((norm, _box_min_oracle(gram, e1, e2, c)),
                      (sup, _sup_oracle(e1, n1, e2, n2))):
        t2 = dist2 * ratio if dist2 > 0 else ratio
        verdict = _far_gate(nd, t2)(e1, n1, e2, n2)
        assert verdict == (dist2 > t2)
        assert _far_gate(nd, t2)(e1, moved1, e2, moved2) == verdict


@pytest.mark.parametrize("images, cap, status, depth, delta", [
    ("aaab,abbb", 12, "NOT_INJECTIVE", 1, F(3, 4)),
    ("aaaaaba,babbbbb", 12, "CERTIFIED_INJECTIVE", 1, F(5, 28)),
    ("aaaaaba,bbbbbab", 12, "NOT_INJECTIVE", 1, F(5, 28)),
    ("aaba,babb", 2, "UNKNOWN", 2, F(1, 2)),
    # inverse letters: slots with mul = -d in the certifier's charts
    ("BaBB,aaa", 12, "CERTIFIED_INJECTIVE", 1, F(2, 5)),
    ("aaBB,bba", 12, "NOT_INJECTIVE", 1, F(2)),
    ("aaa,BaBB", 3, "UNKNOWN", 3, F(58925565098879, 200000000000000)),
])
def test_certifier_outcomes(images, cap, status, depth, delta):
    m = TightMap(Endomorphism.from_strings(2, *images.split(",")))
    cert = shadow_pairs(m, depth=cap)
    assert (cert.status, cert.depth, cert.delta) == (status, depth, delta)
    if status == "NOT_INJECTIVE":
        x, y = cert.witness
        assert x != y
        assert m.lift_iter(x, cert.depth) == m.lift_iter(y, cert.depth)
    else:
        assert cert.witness is None


@settings(max_examples=40, deadline=None)
@given(tight_maps())
def test_move_table_matches_product_step(m):
    """The move table keeps, at every depth down to 4, the cells that the
    product of both charts' pieces keeps, in the same iteration order, so
    shadow_pairs returns the product walk's certificate and hits its cell
    budget at the same point: one cell below the largest depth's count,
    and not at that count."""
    cap = 4000
    try:
        want, depths = shadow_depths(m, 4, max_cells=cap)
    except (NotExpanding, AdaptedNormUnavailable, BudgetExceeded):
        assume(False)
    sr = m.sigma_report()
    near, cells = _depth0(m, sr, cap)
    moves = {}
    for old in depths[1:]:
        cells = _cells(_near_children(m, cells, near, moves), cap)
        assert list(cells) == list(old)
    assert shadow_pairs(m, depth=4) == want
    n = max(map(len, depths))
    # the depth-0 box must pass its own budget at n - 1 cells
    w = int(sr.norm.radius * 2 * sr.delta) + 2
    assume(m.rank ** 2 * (2 * w + 1) ** m.rank <= (n - 1) * max(m.speeds) ** 2)
    assert shadow_pairs(m, depth=4, max_cells=n) == want
    with pytest.raises(BudgetExceeded, match=f"^segment-pair cells exceeded {n - 1}$"):
        shadow_pairs(m, depth=4, max_cells=n - 1)

@pytest.mark.parametrize("images, k", [("aaabaaa,bbbabbb", 3), ("aaba,babb", 4)])
def test_beta_matches_prefix_lattice_points(images, k):
    """Each level-k value is A^-k applied to the lattice point reached after
    the first i letters of psi^k(e), the word built here by substitution."""
    a_img, b_img = images.split(",")
    m = TightMap(Endomorphism.from_strings(2, a_img, b_img))
    ainv, den = rat_inverse(m.A ** k)
    values = beta_breakpoints(m, k).values
    for e, word in enumerate("ab"):
        for _ in range(k):
            word = "".join(a_img if ch == "a" else b_img for ch in word)
        assert len(values[e]) == len(word) + 1
        for i, val in enumerate(values[e]):
            prefix = (word[:i].count("a"), word[:i].count("b"))
            assert val == tuple(F(x, den) for x in ainv.apply(prefix))


@st.composite
def expanding_maps_with_inverses(draw):
    """Expanding maps of rank 2-3 whose reduced images share one length M
    in 4..5 and start and end with positive letters, no two images with
    the same first or the same last letter: then no junction of reduced
    words can cancel, so they expand uniformly. The second letter of a's
    image is an inverse letter."""
    b = draw(st.integers(2, 3))
    length = draw(st.integers(4, 5))
    firsts, lasts = draw(st.permutations(range(b))), draw(st.permutations(range(b)))
    images = []
    for g in range(b):
        word = [Letter(firsts[g], 1)]
        for j in range(length - 2):
            banned = {word[-1].inverse(), Letter(lasts[g], -1) if j == length - 3 else None}
            signs = (-1,) if g == j == 0 else (1, -1)
            word.append(draw(st.sampled_from([Letter(h, s) for h in range(b) for s in signs
                                              if Letter(h, s) not in banned])))
        images.append(Word((*word, Letter(lasts[g], 1))))
    m = TightMap(Endomorphism(b, tuple(images)))
    assume(m.spectral.is_expanding)
    assert m.endo.uniform_expansion() == length
    return m


@settings(max_examples=60, deadline=None)
@given(expanding_maps_with_inverses(), st.integers(0, 3))
@example(TightMap(Endomorphism.from_strings(3, "aCb", "bac", "caa")), 1)  # no adapted norm
def test_streamed_beta_matches_reduced_power_prefix_walk(m, k):
    """The letters streamed from the image table are those of the freely
    reduced word psi^k(e): each row is the prefix walk over
    Endomorphism.power(k), summed with kappa. The table needs no norm:
    without a certified one the tail bound is None."""
    approx = beta_breakpoints(m, k)
    try:
        assert approx.tail_bound == tail_bound(m, k)
    except AdaptedNormUnavailable:
        assert approx.tail_bound is None
    values = approx.values
    steps = {}
    for e, word in enumerate(m.endo.power(k).images):
        acc = (F(0),) * m.rank
        walk = [acc]
        for letter in word:
            if letter not in steps:
                steps[letter] = kappa(m, letter, k)
            acc = tuple(map(operator.add, acc, steps[letter]))
            walk.append(acc)
        assert values[e] == tuple(walk)


@pytest.mark.parametrize("images, kind", [("aaab,bbba", "eigenbasis"),
                                          ("aaabaaa,bbbabbb", "eigenbasis"),
                                          ("BaBB,aaa", "sup")])
def test_far_gate_box_and_symmetry(images, kind):
    """Every relative position with some |c_i| >= w, w the half-width of
    the certifier's depth-0 box, is far: that is why the box pass can
    decide every near position. The gate gives (e1, e2, c) and
    (e2, e1, -c) one verdict, so the pass decides each unordered position
    once. Checked on phi2, phi3 and a sup-norm map, on a box two wider
    than w, which holds near positions."""
    m = TightMap(Endomorphism.from_strings(2, *images.split(",")))
    sr = m.sigma_report()
    theta = 2 * sr.delta
    w = int(sr.norm.radius * theta) + 2
    far = _far_gate(sr.norm, theta * theta)
    zero = (0,) * m.rank
    near = 0
    for e1, e2 in itertools.product(range(m.rank), repeat=2):
        for c in itertools.product(range(-w - 2, w + 3), repeat=m.rank):
            verdict = far(e1, c, e2, zero)
            assert far(e2, zero, e1, c) == verdict
            if max(map(abs, c)) >= w:
                assert verdict
            near += not verdict
    assert near
    assert sr.norm.kind == kind


# shadow_pairs(depth=6) on each letter order of phi2's images, under both
# norms: (status, depth, delta, witness as (edge, t, base) pairs)
_PHI2_ORDER_CERTS = {
    ("aaab", "abbb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
    ("aaab", "babb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(3, 4), (-1, 1)), (1, F(3, 4), (0, 0)))),
    ("aaab", "bbab"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 2), (-1, 1)), (1, F(1, 2), (0, 0)))),
    ("aaab", "bbba"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 2), (-1, 1)), (1, F(1, 2), (0, 0)))),
    ("aaba", "abbb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
    ("aaba", "babb"): ("UNKNOWN", 6, F(1, 2), None),
    ("aaba", "bbab"): ("NOT_INJECTIVE", 1, F(1, 2), ((0, F(1, 2), (-1, 1)), (1, F(1, 2), (0, 0)))),
    ("aaba", "bbba"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 2), (-1, 1)), (1, F(1, 2), (0, 0)))),
    ("abaa", "abbb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
    ("abaa", "babb"): ("NOT_INJECTIVE", 1, F(1, 2), ((0, F(1, 2), (0, 0)), (1, F(1, 2), (0, 0)))),
    ("abaa", "bbab"): ("UNKNOWN", 6, F(1, 2), None),
    ("abaa", "bbba"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(3, 4), (-1, 1)), (1, F(3, 4), (0, 0)))),
    ("baaa", "abbb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 2), (0, 0)), (1, F(1, 2), (0, 0)))),
    ("baaa", "babb"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
    ("baaa", "bbab"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
    ("baaa", "bbba"): ("NOT_INJECTIVE", 1, F(3, 4), ((0, F(1, 8), (0, 0)), (1, F(1, 8), (0, 0)))),
}


def test_phi2_letter_orders_keep_their_certificates():
    orders = [sorted({"".join(p) for p in itertools.permutations(w)}) for w in ("aaab", "bbba")]
    assert sorted(itertools.product(*orders)) == sorted(_PHI2_ORDER_CERTS)
    for images, (status, depth, delta, witness) in _PHI2_ORDER_CERTS.items():
        m = TightMap(Endomorphism.from_strings(2, *images))
        for norm, kind in (("adapted", "eigenbasis"), ("sup", "sup")):
            cert = shadow_pairs(m, depth=6, norm=norm)
            got = None if cert.witness is None else tuple(
                (cp.point.edge, cp.point.t, cp.base) for cp in cert.witness)
            assert (cert.status, cert.depth, cert.delta, cert.norm, got) == (
                status, depth, delta, kind, witness)


def _touch_oracle(e1, n1, e2, n2):
    """'ident', the single shared point, or None for two unit axis segments,
    by intersecting their boxes coordinate by coordinate."""
    if e1 == e2 and n1 == n2:
        return "ident"
    box = []
    for i in range(len(n1)):
        a_lo, a_hi = n1[i], n1[i] + (1 if i == e1 else 0)
        b_lo, b_hi = n2[i], n2[i] + (1 if i == e2 else 0)
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        if lo > hi:
            return None
        box.append((lo, hi))
    if any(lo != hi for lo, hi in box):
        raise RuntimeError("distinct grid segments cannot overlap in a segment")
    return tuple(lo for lo, _ in box)


def _preimages_intersect_oracle(p, q):
    """Whether the closed original pieces of two charts meet, in Fractions."""
    def interval(c):
        return sorted((F(-c.beta, c.alpha), F(1 - c.beta, c.alpha)))

    (plo, phi), (qlo, qhi) = interval(p), interval(q)
    for i in range(len(p.o_base)):
        a_lo = F(p.o_base[i]) + (plo if i == p.o_edge else 0)
        a_hi = F(p.o_base[i]) + (phi if i == p.o_edge else 0)
        b_lo = F(q.o_base[i]) + (qlo if i == q.o_edge else 0)
        b_hi = F(q.o_base[i]) + (qhi if i == q.o_edge else 0)
        if max(a_lo, b_lo) > min(a_hi, b_hi):
            return False
    return True


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 4).flatmap(lambda b: st.tuples(
    st.integers(0, b - 1), st.tuples(*[st.integers(-2, 2)] * b),
    st.integers(0, b - 1), st.tuples(*[st.integers(-2, 2)] * b))))
def test_touch_matches_box_oracle(case):
    assert _touch(*case) == _touch_oracle(*case)


@st.composite
def chart_pairs(draw):
    """Two charts of one rank whose original pieces are slot cylinders
    [i/d, (i+1)/d] of small lifted edges near each other, in either
    orientation, so that pieces meet, touch and miss."""
    b = draw(st.integers(1, 3))

    def chart():
        d = draw(st.sampled_from([1, 2, 3, 4, 7, 16, 49]))
        i = draw(st.integers(0, d - 1))
        alpha, beta = (d, -i) if draw(st.booleans()) else (-d, i + 1)
        o_edge = draw(st.integers(0, b - 1))
        o_base = draw(st.tuples(*[st.integers(-1, 1)] * b))
        return Chart(0, (0,) * b, o_edge, o_base, alpha, beta)

    return chart(), chart()


@settings(max_examples=500, deadline=None)
@given(chart_pairs(), st.sampled_from([(0, 1), (1, 2), (1, 1)]),
       st.sampled_from([(0, 1), (1, 2), (1, 1)]))
def test_integer_chart_tests_match_fraction_oracles(pq, u, v):
    p, q = pq
    assert _preimages_intersect(p, q) == _preimages_intersect_oracle(p, q)
    assert _preimages_intersect(p, p)
    # one denominator for both parameters, as the certifier calls it
    den = u[1] * v[1]
    same = p.orig_point(F(*u)) == q.orig_point(F(*v))
    assert _same_origin(p, u[0] * v[1], q, v[0] * u[1], den) == same
    assert _same_origin(p, u[0] * v[1], p, u[0] * v[1], den)
