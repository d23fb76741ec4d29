"""Deterministic SVG emitters for the beta polyline and rotation-set figures.

Each figure is drawn on a canvas of integer numerators over one canvas
denominator D: the point (x, y) of the lattice is kept as (x*D, y*D), with
the y-axis up and 100 px per unit. Pixels are formatted from those integers
alone, with no float and no Fraction per point, so a fixed input always
produces identical bytes.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .intmat import _at_least, rat_inverse
from .rotation import RotationSetReport
from .semiconj import BetaApproximation

_UNIT = 100  # px per lattice unit
_SCALE = _UNIT * 10000  # px per unit, on the grid of 4 decimals


def _px(num: int, den: int) -> str:
    """num/den lattice units (den > 0) in px: the exact decimal when it has
    at most 4 places, else rounded half up at the fourth; integers only.

    >>> _px(1, 2), _px(-1, 3), _px(2, 3), _px(1, 1600), _px(-3, 6)
    ('50', '-33.3333', '66.6667', '0.0625', '-50')
    """
    n = (2 * num * _SCALE + den) // (2 * den)
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10000)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:04d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


def _render(den: int, shapes: list, style: str) -> str:
    """The SVG of shapes, each (kind, points, radius, cls) with kind one of
    "polyline", "circle" (one point, radius in px) or "line" (two points),
    points as integer numerators over den with y up; the view box is the
    points' bounding box, flipped to y down and padded by 20 px."""
    pad = 20
    xs = [x for _, pts, _, _ in shapes for x, _ in pts]
    ys = [y for _, pts, _, _ in shapes for _, y in pts]
    x0 = min(xs) * _UNIT // den - pad
    y0 = -max(ys) * _UNIT // den - pad
    x1 = -(-max(xs) * _UNIT // den) + pad
    y1 = -(min(ys) * _UNIT // den) + pad
    w, h = x1 - x0, y1 - y0
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'viewBox="{x0} {y0} {w} {h}" width="{w}" height="{h}">')
    out.append(f"<style>{style}</style>")
    memo = {}  # numerator -> px text; deck translates repeat each one

    def px(num):
        text = memo.get(num)
        if text is None:
            text = memo[num] = _px(num, den)
        return text

    for kind, pts, r, cls in shapes:
        if kind == "polyline":
            coords = " ".join(f"{px(x)},{px(-y)}" for x, y in pts)
            out.append(f'<polyline class="{cls}" points="{coords}"/>')
        elif kind == "circle":
            (x, y), = pts
            out.append(f'<circle class="{cls}" cx="{px(x)}" cy="{px(-y)}" r="{r}"/>')
        else:
            (ax, ay), (bx, by) = pts
            out.append(f'<line class="{cls}" x1="{px(ax)}" y1="{px(-ay)}" '
                       f'x2="{px(bx)}" y2="{px(-by)}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _over(vec, d: int) -> tuple:
    """The integer numerators of a rational vector over d, a common
    multiple of its denominators."""
    return tuple(a.numerator * (d // a.denominator) for a in vec)


_BETA_STYLE = (
    "polyline{fill:none;stroke-width:2}"
    ".edge0{stroke:#205090}.edge1{stroke:#a03030}"
    ".edge2{stroke:#208050}.edge3{stroke:#806020}"
    ".deck{stroke:#b8c4d8;stroke-width:1}"
    ".axis{stroke:#d0d0d0;stroke-width:1}"
    "circle.alpha{fill:#e0a020;stroke:#604000;stroke-width:1}"
)


def beta_figure(approx: BetaApproximation, window: int = 1) -> str:
    """The exact beta polyline of the table per edge, deck translates in a
    lighter stroke, and the exact lifted alpha value of each fixed point as
    a circle."""
    window = _at_least(window, "window", 0)
    m = approx.map
    b = m.rank
    if b != 2:
        raise ValueError("beta figure is drawn for rank 2 only")
    shift, den = rat_inverse(m.A - m.A.identity(b))
    d = lcm(den, *{a.denominator for row in approx.values for v in row for a in v})
    rows = [[_over(v, d) for v in row] for row in approx.values]
    span = (window + 1) * d
    shapes = [("line", ((-span, 0), (span, 0)), None, "axis"),
              ("line", ((0, -span), (0, span)), None, "axis")]
    for ox, oy in sorted(product(range(-window, window + 1), repeat=b)):
        if ox == oy == 0:
            continue
        ox, oy = ox * d, oy * d
        shapes += [("polyline", [(x + ox, y + oy) for x, y in row], None, "deck")
                   for row in rows]
    shapes += [("polyline", row, None, f"edge{e}") for e, row in enumerate(rows)]
    scale = d // den
    for p in m.periodic_points(1):
        x, y = shift.apply(p.translation)
        shapes.append(("circle", ((x * scale, y * scale),), 4, "alpha"))
    return _render(d, shapes, _BETA_STYLE)


_ROTSET_STYLE = (
    "polyline.hull{fill:#e8eef8;stroke:#205090;stroke-width:2}"
    ".axis{stroke:#d0d0d0;stroke-width:1}"
    "circle.loop{fill:#808080}"
    "circle.fix{fill:#a03030}"
    "circle.per2{fill:#208050}"
)


def rotset_figure(report: RotationSetReport) -> str:
    """Hull polygon with loop rotation vectors; fixed-point and period-2
    vectors in their own classes."""
    vecs = [*report.hull_vertices, *(v for _, v in report.loop_vectors),
            *report.fixed_point_vectors, *report.period2_vectors]
    if any(len(v) != 2 for v in vecs):
        raise ValueError("rotation-set figure is drawn for rank 2 only")
    # 2 places the axis ends at +-3/2
    d = lcm(2, *{a.denominator for v in vecs for a in v})
    span = 3 * d // 2
    shapes = [("line", ((-span, 0), (span, 0)), None, "axis"),
              ("line", ((0, -span), (0, span)), None, "axis")]
    if report.hull_vertices:
        ring = list(report.hull_vertices) + [report.hull_vertices[0]]
        shapes.append(("polyline", [_over(v, d) for v in ring], None, "hull"))
    fixed = set(report.fixed_point_vectors)
    per2 = set(report.period2_vectors)
    shapes += [("circle", (_over(vec, d),), 3, "loop") for _, vec in report.loop_vectors
               if vec not in fixed and vec not in per2]
    shapes += [("circle", (_over(vec, d),), 4, "per2") for vec in sorted(per2)]
    shapes += [("circle", (_over(vec, d),), 5, "fix") for vec in sorted(fixed)]
    return _render(d, shapes, _ROTSET_STYLE)
