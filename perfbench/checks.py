"""Independent exact arithmetic for the output gates.

Nothing here calls wedgedyn: the gates re-derive each checked quantity
from plain integers (and Fractions only where the program hands us one),
so a defect in the program's own kernels cannot vouch for itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_pow(a, k):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def minus_identity(a):
    return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]


def det(a):
    """Determinant by cofactor expansion along the first row (small n only)."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * det(minor)
    return total


def over_common_denominator(coords):
    """(q, [integers]) with coords = integers / q."""
    q = lcm(*(Fraction(c).denominator for c in coords))
    return q, [int(Fraction(c) * q) for c in coords]


def solves_mod_one(m, coords, n) -> bool:
    """True iff M x - n is an integer vector (x = Psi of the class of n)."""
    q, num = over_common_denominator(coords)
    return all((sum(r * x for r, x in zip(row, num)) - q * n[i]) % q == 0
               for i, row in enumerate(m))


def torus_fixed(ak, coords) -> bool:
    """True iff x = coords lies in [0,1)^n and A^k x = x mod Z^n."""
    return (all(0 <= c < 1 for c in coords)
            and solves_mod_one(minus_identity(ak), coords, [0] * len(coords)))


# -- positive graph maps given as image strings ("aaab", "bbba") -----------

def letters(images):
    """[(generator, sign), ...] per edge; lowercase positive, uppercase inverse."""
    return [[(ord(ch.lower()) - ord("a"), 1 if ch.islower() else -1) for ch in w]
            for w in images]


def abelianization(images):
    """Column j is the abelianized image of generator j."""
    n = len(images)
    cols = []
    for word in letters(images):
        v = [0] * n
        for g, s in word:
            v[g] += s
        cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def census_size(images, k) -> int:
    """|Fix(phi^k)| for a map whose image words are all positive.

    Every closed slot itinerary of length k carries one fixed point, and
    only the vertex carries more than one: it is reached from t = 0 along
    the first-letter map F and from t = 1 along the last-letter map L.
    So the census is trace(T^k) - (#Fix F^k + #Fix L^k) + 1, with T the
    letter-count matrix.
    """
    return itinerary_count(images, k) - vertex_itineraries(images, k) + 1


def itinerary_count(images, k) -> int:
    """trace(T^k): the number of closed slot itineraries of length k."""
    words = _positive(images)
    n = len(images)
    t = [[sum(1 for g, _ in words[e] if g == j) for j in range(n)] for e in range(n)]
    tk = mat_pow(t, k)
    return sum(tk[i][i] for i in range(n))


def vertex_itineraries(images, k) -> int:
    words = _positive(images)
    count = 0
    for pick in (0, -1):
        step = [w[pick][0] for w in words]
        for e in range(len(words)):
            x = e
            for _ in range(k):
                x = step[x]
            count += x == e
    return count


def _positive(images):
    words = letters(images)
    if any(s < 0 for w in words for _, s in w):
        raise ValueError("the census formulas need positive image words")
    return words


def graph_step(words, point):
    """One step of the tight map on the wedge; point = (edge, t), vertex (0, 0)."""
    e, t = point
    if t == 0:
        return (0, Fraction(0))
    d = len(words[e])
    pos = d * t
    i = pos.numerator // pos.denominator
    u = pos - i
    g, s = words[e][i]
    t2 = u if s > 0 else 1 - u
    return (0, Fraction(0)) if t2 in (0, 1) else (g, t2)


def returns_after(words, point, k) -> bool:
    x = point
    for _ in range(k):
        x = graph_step(words, x)
    return x == point


def _cover(edge, t, base):
    if t == 1:
        base = tuple(x + (i == edge) for i, x in enumerate(base))
        t = Fraction(0)
    if t == 0:
        return (0, Fraction(0), tuple(base))
    return (edge, t, tuple(base))


def lift_step(words, a, point):
    """The origin-fixing lift to the abelian cover; point = (edge, t, base)."""
    e, t, base = point
    abase = tuple(sum(r * x for r, x in zip(row, base)) for row in a)
    if t == 0:
        return (0, Fraction(0), abase)
    d = len(words[e])
    pos = d * t
    i = pos.numerator // pos.denominator
    u = pos - i
    g, s = words[e][i]
    stop = i if s > 0 else i + 1
    pref = [0] * len(base)
    for h, sg in words[e][:stop]:
        pref[h] += sg
    seg = tuple(x + p for x, p in zip(abase, pref))
    return _cover(g, u if s > 0 else 1 - u, seg)


def same_lifted_image(images, x, y, depth) -> bool:
    """True iff cover points x != y have equal images under the depth-th lift."""
    words = letters(images)
    a = abelianization(images)
    x = _cover(*x)
    y = _cover(*y)
    if x == y:
        return False
    for _ in range(depth):
        x = lift_step(words, a, x)
        y = lift_step(words, a, y)
    return x == y


def beta_matches_prefix_walk(images, k, values) -> bool:
    """A^k * beta(i/M^k) equals the lattice point after i letters of psi^k(e)."""
    words = _positive(images)
    n = len(images)
    ak = mat_pow(abelianization(images), k)
    for e in range(n):
        word = [(e, 1)]
        for _ in range(k):
            word = [letter for g, _ in word for letter in words[g]]
        if len(values[e]) != len(word) + 1:
            return False
        pos = [0] * n
        for i, val in enumerate(values[e]):
            q, num = over_common_denominator(val)
            if any(sum(r * x for r, x in zip(row, num)) != q * p for row, p in zip(ak, pos)):
                return False
            if i < len(word):
                g, s = word[i]
                pos[g] += s
    return True
