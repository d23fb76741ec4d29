"""Deterministic SVG emitters for the beta polyline and rotation-set figures.

Coordinates are exact rationals scaled by 100 px per unit, y-axis up.
Formatting goes through integer arithmetic only, so a fixed input always
produces identical bytes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .graphmap import TightMap
from .intmat import rat_inverse
from .rotation import RotationSetReport
from .semiconj import beta_breakpoints

_UNIT = 100  # px per lattice unit


def _px(value) -> str:
    """Exact decimal when possible, else fixed 4 decimals, no floats."""
    v = Fraction(value) * _UNIT
    scaled = v * 10000
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10000)
    if frac == 0:
        return f"{sign}{whole}"
    digits = f"{frac:04d}".rstrip("0")
    return f"{sign}{whole}.{digits}"


class _Canvas:
    """Collects shapes in user units (y up), emits flipped pixel SVG."""

    def __init__(self):
        self.shapes = []
        self.xs = []
        self.ys = []

    def _track(self, pts):
        for x, y in pts:
            self.xs.append(Fraction(x))
            self.ys.append(Fraction(y))

    def polyline(self, pts, cls):
        self._track(pts)
        self.shapes.append(("polyline", tuple((Fraction(x), Fraction(y)) for x, y in pts), cls))

    def circle(self, x, y, r_px, cls):
        self._track([(x, y)])
        self.shapes.append(("circle", (Fraction(x), Fraction(y), r_px), cls))

    def line(self, x1, y1, x2, y2, cls):
        self._track([(x1, y1), (x2, y2)])
        self.shapes.append(("line", (Fraction(x1), Fraction(y1), Fraction(x2), Fraction(y2)), cls))

    def render(self, style: str) -> str:
        pad = 20
        min_x = min(self.xs) if self.xs else Fraction(0)
        max_x = max(self.xs) if self.xs else Fraction(1)
        min_y = min(self.ys) if self.ys else Fraction(0)
        max_y = max(self.ys) if self.ys else Fraction(1)
        x0 = (min_x * _UNIT).__floor__() - pad
        y0 = (-max_y * _UNIT).__floor__() - pad
        x1 = -((-max_x * _UNIT).__floor__()) + pad
        y1 = -((min_y * _UNIT).__floor__()) + pad
        w, h = x1 - x0, y1 - y0
        out = ['<?xml version="1.0" encoding="UTF-8"?>']
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                   f'viewBox="{x0} {y0} {w} {h}" width="{w}" height="{h}">')
        out.append(f"<style>{style}</style>")
        for kind, geom, cls in self.shapes:
            if kind == "polyline":
                pts = " ".join(f"{_px(x)},{_px(-y)}" for x, y in geom)
                out.append(f'<polyline class="{cls}" points="{pts}"/>')
            elif kind == "circle":
                x, y, r = geom
                out.append(f'<circle class="{cls}" cx="{_px(x)}" cy="{_px(-y)}" r="{r}"/>')
            elif kind == "line":
                ax, ay, bx, by = geom
                out.append(f'<line class="{cls}" x1="{_px(ax)}" y1="{_px(-ay)}" '
                           f'x2="{_px(bx)}" y2="{_px(-by)}"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


_BETA_STYLE = (
    "polyline{fill:none;stroke-width:2}"
    ".edge0{stroke:#205090}.edge1{stroke:#a03030}"
    ".edge2{stroke:#208050}.edge3{stroke:#806020}"
    ".deck{stroke:#b8c4d8;stroke-width:1}"
    ".axis{stroke:#d0d0d0;stroke-width:1}"
    "circle.alpha{fill:#e0a020;stroke:#604000;stroke-width:1}"
)


def beta_figure(m: TightMap, k: int, window: int = 1) -> str:
    """The exact level-k beta polyline per edge, deck translates in a lighter
    stroke, and the exact lifted alpha value of each fixed point as a circle."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    approx = beta_breakpoints(m, k)
    b = m.rank
    if b != 2:
        raise ValueError("beta figure is drawn for rank 2 only")
    canvas = _Canvas()
    span = window + 1
    canvas.line(-span, 0, span, 0, "axis")
    canvas.line(0, -span, 0, span, "axis")
    offsets = sorted(product(range(-window, window + 1), repeat=b))
    for off in offsets:
        if all(x == 0 for x in off):
            continue
        for e in range(b):
            pts = [(v[0] + off[0], v[1] + off[1]) for v in approx.values[e]]
            canvas.polyline(pts, "deck")
    for e in range(b):
        canvas.polyline([(v[0], v[1]) for v in approx.values[e]], f"edge{e}")
    shift, den = rat_inverse(m.A - m.A.identity(b))
    for p in m.periodic_points(1):
        x, y = shift.apply(p.translation)
        canvas.circle(Fraction(x, den), Fraction(y, den), 4, "alpha")
    return canvas.render(_BETA_STYLE)


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
    if report.hull_vertices and len(report.hull_vertices[0]) != 2:
        raise ValueError("rotation-set figure is drawn for rank 2 only")
    canvas = _Canvas()
    canvas.line(Fraction(-3, 2), 0, Fraction(3, 2), 0, "axis")
    canvas.line(0, Fraction(-3, 2), 0, Fraction(3, 2), "axis")
    if report.hull_vertices:
        ring = list(report.hull_vertices) + [report.hull_vertices[0]]
        canvas.polyline(ring, "hull")
    fixed = set(report.fixed_point_vectors)
    per2 = set(report.period2_vectors)
    for _, vec in report.loop_vectors:
        if vec in fixed or vec in per2:
            continue
        canvas.circle(vec[0], vec[1], 3, "loop")
    for vec in sorted(per2):
        canvas.circle(vec[0], vec[1], 4, "per2")
    for vec in sorted(fixed):
        canvas.circle(vec[0], vec[1], 5, "fix")
    return canvas.render(_ROTSET_STYLE)
