"""Command-line front end: analyze | bf | fix | torus | rotset | beta | shadow.

Primary textual output (JSON or CSV) goes to stdout; figure subcommands
also write an SVG file. Exit codes: 0 success, 1 input error, 2 verdict
UNKNOWN, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import sys
from functools import cache

from .bf import BFGroup, enumerate_fixed
from .dsl import MapSpec, parse
from .errors import (
    AdaptedNormUnavailable,
    BudgetExceeded,
    NotExpanding,
    ParseError,
    WedgedynError,
)
from .graphmap import TightMap, iota
from .intmat import IntMatrix, _at_least
from .rotation import rotation_set
from .semiconj import beta_breakpoints, holder_bound, shadow_pairs
from .svg import beta_figure, rotset_figure


def _load_spec(path: str, name: str | None) -> MapSpec:
    with open(path, encoding="utf-8") as fh:
        specs = parse(fh.read())
    if not specs:
        raise ParseError("no map definitions in file", 1, 1)
    if name is None:
        return specs[0]
    for s in specs:
        if s.name == name:
            return s
    known = ", ".join(s.name for s in specs)
    raise ParseError(f"no map named {name!r} (file has: {known})", 1, 1)


def _load_matrix(text: str) -> IntMatrix:
    rows = ast.literal_eval(text)
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(r, (list, tuple)) and len(r) == len(rows[0]) for r in rows)
            and all(type(x) is int for r in rows for x in r)):
        raise ValueError(f"--matrix needs equal-length rows of integers, got {text}")
    return IntMatrix(rows)


def _tight_map(args) -> TightMap:
    spec = _load_spec(args.mapfile, args.name)
    return TightMap(spec.to_endomorphism(), name=spec.name)


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\r\n")


def cmd_analyze(args) -> int:
    m = _tight_map(args)
    sp = m.spectral
    report = {
        "name": m.name,
        "rank": m.rank,
        "images": [str(w) for w in m.endo.images],
        "abelianization": [list(r) for r in m.A.rows],
        "charpoly": list(sp.charpoly),
        "eigenvalues": [
            {"re": str(ev.re) if ev.exact else float(ev.re),
             "im": str(ev.im) if ev.exact else float(ev.im),
             "eps": float(ev.eps),
             "multiplicity": ev.multiplicity}
            for ev in sp.eigenvalues
        ],
        "is_expanding": sp.is_expanding,
        "lambda_lower": str(sp.lambda_lower),
        "uniform_expansion": m.endo.uniform_expansion(),
    }
    if sp.is_expanding:
        # the Holder bound needs no norm; without a certified one the
        # sigma block degrades to its reason
        report["holder_bound"] = str(holder_bound(m))
        try:
            sr = m.sigma_report(norm=args.norm)
        except (AdaptedNormUnavailable, NotExpanding) as exc:
            report.update({"norm": None,
                           "sigma_unavailable": f"{type(exc).__name__}: {exc}"})
        else:
            report.update({
                "norm": sr.norm.kind,
                "c": str(sr.c),
                "c_sup": str(sr.c_sup),
                "lam": str(sr.lam),
                "delta": str(sr.delta),
            })
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_bf(args) -> int:
    _at_least(args.k, "k", 1)
    if args.matrix is not None:
        a = _load_matrix(args.matrix)
        label = "matrix"
    else:
        m = _tight_map(args)
        a = m.A
        label = m.name
    rows = []
    # g holds BF_{k-1} while BF_k is built, so only BF_1 checks the spectrum
    for k in range(1, args.k + 1):
        g = BFGroup(a, k)
        rows.append({
            "k": k,
            "invariant_factors": [str(d) for d in g.invariant_factors],
            "diagonal": [str(d) for d in g.diagonal],
            "order": str(g.order),
        })
    if args.format == "json":
        print(json.dumps({"name": label, "matrix": [list(r) for r in a.rows],
                          "groups": rows}, indent=2, sort_keys=True))
    else:
        w = _csv_writer()
        w.writerow(["k", "invariant_factors", "order"])
        for r in rows:
            w.writerow([r["k"], "x".join(r["invariant_factors"]), r["order"]])
    return 0


def cmd_fix(args) -> int:
    m = _tight_map(args)
    pts = m.periodic_points(args.k, budget=args.budget)
    b = m.rank
    w = _csv_writer()
    header = (["edge", "t", "period", "least_period"]
              + [f"delta_{i}" for i in range(b)]
              + [f"disp_{i}" for i in range(b)]
              + [f"alpha_{i}" for i in range(b)])
    w.writerow(header)
    for p in pts:
        disp = [""] * b if p.displacement is None else p.displacement.r
        alpha = [""] * b if p.alpha_image is None else p.alpha_image.coords
        w.writerow([p.point.edge, p.point.t, p.period, p.least_period,
                    *p.translation, *disp, *alpha])
    return 0


def cmd_torus(args) -> int:
    m = _tight_map(args)
    pts = enumerate_fixed(m.A, args.k, budget=args.budget)
    w = _csv_writer()
    w.writerow([f"x_{i}" for i in range(m.rank)])
    for p in pts:
        w.writerow(p.coords)
    return 0


def cmd_rotset(args) -> int:
    m = _tight_map(args)
    report = rotation_set(m, budget=args.budget)
    # render first, so a bad figure request fails before any CSV is written
    figure = None if args.svg is None else rotset_figure(report)
    w = _csv_writer()
    b = m.rank
    w.writerow(["kind", "period"] + [f"v_{i}" for i in range(b)])
    for period, vec in report.loop_vectors:
        w.writerow(["loop", period, *vec])
    for vec in report.hull_vertices:
        w.writerow(["hull", "", *vec])
    for vec in report.fixed_point_vectors:
        w.writerow(["fixed", 1, *vec])
    for vec in report.period2_vectors:
        w.writerow(["period2", 2, *vec])
    if figure is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(figure)
    return 0


def cmd_beta(args) -> int:
    _at_least(args.window, "window", 0)
    m = _tight_map(args)
    approx = beta_breakpoints(m, args.k, budget=args.budget)
    # render first, so a bad figure request fails before any CSV is written
    figure = None if args.svg is None else beta_figure(approx, window=args.window)
    w = _csv_writer()
    b = m.rank
    w.writerow(["edge", "i", "t"] + [f"beta_{i}" for i in range(b)])
    denom = approx.M ** approx.level
    # each distinct t numerator is reduced by one gcd, with no Fraction built
    ts = {i: str(i // g) if (g := math.gcd(i, denom)) == denom else f"{i // g}/{denom // g}"
          for i in set().union(*approx.t)}
    for e, (t, rows) in enumerate(zip(approx.t, approx.values)):
        w.writerows((e, i, ts[u], *val) for i, (u, val) in enumerate(zip(t, rows)))
    if figure is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(figure)
    return 0


def cmd_shadow(args) -> int:
    m = _tight_map(args)
    cert = shadow_pairs(m, depth=args.depth, norm=args.norm,
                        max_cells=args.max_cells)
    witness = None
    if cert.witness is not None:
        witness = [{"edge": cp.point.edge, "t": str(cp.point.t),
                    "base": list(cp.base),
                    "coords": [str(x) for x in iota(cp)]}
                   for cp in cert.witness]
    print(json.dumps({"status": cert.status, "depth": cert.depth,
                      "delta": str(cert.delta), "norm": cert.norm,
                      "witness": witness}, indent=2, sort_keys=True))
    return 2 if cert.status == "UNKNOWN" else 0


BUDGET = 200000  # the default --budget of every enumerating subcommand


@cache  # built on the first call and then shared: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="wedgedyn",
                                  description="homological invariants of tight graph maps")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, norm=False):
        p.add_argument("mapfile", help="map description file")
        p.add_argument("--name", default=None, help="which map in the file (default: first)")
        if norm:
            p.add_argument("--norm", choices=("adapted", "sup"), default="adapted")

    p = sub.add_parser("analyze", help="matrix, spectra, shadowing constants (JSON)")
    common(p, norm=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("bf", help="Bowen-Franks groups for k = 1..K")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--matrix", default=None,
                   help="integer matrix literal, e.g. '[[3,1],[1,3]]' (overrides mapfile)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_bf)

    p = sub.add_parser("fix", help="periodic points of period k (CSV)")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--budget", type=int, default=BUDGET,
                   help="most charts the slot walk visits down to depth k (the sum "
                        "of the entries of T^j over j <= k, T the letter-count matrix); "
                        "exit 3 beyond it")
    p.set_defaults(fn=cmd_fix)

    p = sub.add_parser("torus", help="fixed points of the k-th toral iterate (CSV)")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--budget", type=int, default=BUDGET,
                   help="most fixed points to list, |det(A^k - I)|; exit 3 beyond it")
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("rotset", help="minimal loops and rotation-set hull (CSV + SVG)")
    common(p)
    p.add_argument("--budget", type=int, default=BUDGET,
                   help="most minimal loops to list; exit 3 beyond it")
    p.add_argument("--svg", default=None, help="write the hull figure here")
    p.set_defaults(fn=cmd_rotset)

    p = sub.add_parser("beta", help="exact beta breakpoints at level k (CSV + SVG)")
    common(p)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--budget", type=int, default=BUDGET,
                   help="most breakpoint rows, rank * (M^k + 1); exit 3 beyond it")
    p.add_argument("--svg", default=None, help="write the polyline figure here")
    p.set_defaults(fn=cmd_beta)

    p = sub.add_parser("shadow", help="injectivity certificate (JSON)")
    common(p, norm=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-cells", type=int, default=100000,
                   help="most segment-pair cells kept per depth, and the depth-0 box "
                        "of b^2 (2w+1)^b pairs (w its lattice radius, from 2*delta) "
                        "may hold at most MAX_CELLS * L^2, L the largest speed; "
                        "exit 3 beyond either")
    p.set_defaults(fn=cmd_shadow)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"wedgedyn.errors.BudgetExceeded: {exc}", file=sys.stderr)
        return 3
    except WedgedynError as exc:
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, SyntaxError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
