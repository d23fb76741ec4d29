"""The four benchmark workloads: seeded inputs, timed operations, output gates.

A workload is built from (seed, scale, root). Building it is the set-up
that `setup_s` times: it imports the program, generates the inputs from
the seed and parses them into program objects. `ops()` lists the timed
operations; each returns the program's raw result. `canon()` turns one
result into the text that goes into the output digest, `outputs()` counts
the items a result emits, and `check()` runs the untimed output gates over
one pass of results, returning a list of error strings.

Each operation rebuilds its TightMap from the parsed Endomorphism, so the
program's per-object caches never carry over from one pass to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import random
import shutil
import tempfile
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Callable, NamedTuple

import checks

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

PHI2 = ("aaab", "bbba")
PHI3 = ("aaabaaa", "bbbabbb")


class Op(NamedTuple):
    label: str
    kind: str
    item: str     # map name, matrix index or output file name
    k: int
    run: Callable


class Refused(NamedTuple):
    """A documented refusal (RootOfUnitySpectrum, NotExpanding, BudgetExceeded)."""

    kind: str


class Failed(NamedTuple):
    """Any other exception, or the per-operation deadline expiring.

    stack lists the program functions (module.qualname) on the stack where
    it was raised, outermost first. Only kind enters the output digest."""

    kind: str
    stack: tuple = ()


def fmt(x) -> str:
    """Canonical text for exact values: p/q for rationals, (..) for sequences."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(fmt(v) for v in x) + ")"
    if x is None:
        return "-"
    return str(x)


def digest(wl, results) -> str:
    h = hashlib.sha256()
    for label, res in results.items():
        h.update(label.encode())
        h.update(b"\t")
        h.update(wl.canon(label, res).encode())
        h.update(b"\n")
    return h.hexdigest()


def canon_outcome(res):
    """Text for a refusal or failure, or None for a real result."""
    if isinstance(res, Refused):
        return f"refused:{res.kind}"
    if isinstance(res, Failed):
        return f"failed:{res.kind}"
    return None


def map_source(name, images) -> str:
    rules = "".join(f"  {chr(ord('a') + i)} -> {w} ;\n" for i, w in enumerate(images))
    return f"map {name} rank {len(images)} {{\n{rules}}}\n"


def parse_maps(named_images) -> dict:
    """Parse generated map text with the program's DSL, as the CLI would."""
    from wedgedyn import dsl

    text = "".join(map_source(n, im) for n, im in named_images.items())
    return {spec.name: spec.to_endomorphism() for spec in dsl.parse(text)}


def shuffle(images, rng) -> tuple:
    """A seeded letter order of a positive map with the same census size.

    The census size depends on the letter order only through the first
    and last letters of each image word (they carry the vertex's
    itineraries, see checks.census_size). So: optionally reverse every
    word, which swaps the first-letter and last-letter maps, then permute
    the interior letters of each word. A and the speeds stay fixed.
    """
    words = [w[::-1] for w in images] if rng.random() < 0.5 else list(images)
    out = []
    for w in words:
        mid = list(w[1:-1])
        rng.shuffle(mid)
        out.append(w[0] + "".join(mid) + w[-1])
    return tuple(out)


def letter_order_family(images):
    """One representative per symmetry class of every letter order.

    Relabelling a <-> b and reversing every word conjugate the map by a
    lattice symmetry of the cover, which changes neither the certifier's
    verdict nor its work, so each class is run once.
    """
    swap = str.maketrans("ab", "ba")
    orders = [sorted({"".join(p) for p in itertools.permutations(w)}) for w in images]
    seen, reps = set(), []
    for wa, wb in itertools.product(*orders):
        if (wa, wb) in seen:
            continue
        orbit = set()
        for x, y in ((wa, wb), (wb.translate(swap), wa.translate(swap))):
            orbit |= {(x, y), (x[::-1], y[::-1])}
        seen |= orbit
        reps.append((wa, wb))
    return reps


class Census:
    """Periodic-point and torus censuses of letter-order shuffles of phi2 and phi3."""

    name = "census"
    deadline_s = 60.0
    # map -> (largest census level K, largest torus level)
    SIZES = {"full": {"phi2": (5, 4), "phi3": (4, 2)},
             "smoke": {"phi2": (3, 2), "phi3": (2, 1)}}

    def __init__(self, seed, scale, root):
        rng = random.Random(seed)
        self.images = {"phi2": shuffle(PHI2, rng), "phi3": shuffle(PHI3, rng)}
        self.endos = parse_maps(self.images)
        self.sizes = self.SIZES[scale]

    def ops(self):
        from wedgedyn import bf, graphmap

        out = []
        for name, endo in self.endos.items():
            top, torus_top = self.sizes[name]
            for k in range(1, top):
                out.append(Op(f"periodic_points {name} k={k}", "periodic", name, k,
                              lambda e=endo, k=k: graphmap.TightMap(e).periodic_points(k)))
            out.append(Op(f"shadowing_classes {name} k={top}", "classes", name, top,
                          lambda e=endo, k=top: graphmap.TightMap(e).shadowing_classes(k)))
            for k in range(1, torus_top + 1):
                out.append(Op(f"enumerate_fixed {name} k={k}", "torus", name, k,
                              lambda e=endo, k=k: bf.enumerate_fixed(graphmap.TightMap(e).A, k)))
        return out

    @staticmethod
    def _point(p) -> str:
        disp = None if p.displacement is None else p.displacement.r
        alpha = None if p.alpha_image is None else p.alpha_image.coords
        return fmt((p.point.edge, p.point.t, p.least_period, p.itinerary,
                    p.translation, disp, alpha))

    def canon(self, label, res) -> str:
        special = canon_outcome(res)
        if special is not None:
            return special
        if label.startswith("periodic_points"):
            return ";".join(self._point(p) for p in res)
        if label.startswith("shadowing_classes"):
            return ";".join(fmt(tp.coords) + ":" + "|".join(self._point(p) for p in pts)
                            for tp, pts in res)
        return ";".join(fmt(tp.coords) for tp in res)

    def outputs(self, op, res) -> int:
        if op.kind == "classes":
            return sum(len(pts) for _, pts in res)
        return len(res)

    def check(self, ops, results):
        errors = []
        for op in ops:
            res = results[op.label]
            if isinstance(res, (Failed, Refused)):
                errors.append(f"{op.label}: unexpected {canon_outcome(res)}")
                continue
            images = self.images[op.item]
            a = checks.abelianization(images)
            ak = checks.mat_pow(a, op.k)
            if op.kind == "torus":
                want = abs(checks.det(checks.minus_identity(ak)))
                coords = [tp.coords for tp in res]
                if len(coords) != want or len(set(coords)) != want:
                    errors.append(f"{op.label}: {len(coords)} points, |det(A^k - I)| = {want}")
                if not all(checks.torus_fixed(ak, c) for c in coords):
                    errors.append(f"{op.label}: a point is not fixed by A^k mod 1")
                continue
            if op.kind == "classes":
                for tp, pts in res:
                    if not checks.torus_fixed(ak, tp.coords):
                        errors.append(f"{op.label}: class {tp} is not fixed by A^k mod 1")
                    if any(p.alpha_image.coords != tp.coords for p in pts):
                        errors.append(f"{op.label}: a point sits in the wrong class")
                pts = [p for _, pts in res for p in pts]
            else:
                pts = res
            errors.extend(self._check_points(op, images, pts))
        return errors

    @staticmethod
    def _check_points(op, images, pts):
        errors = []
        want = checks.census_size(images, op.k)
        where = {(p.point.edge, p.point.t) for p in pts}
        if len(pts) != want or len(where) != want:
            errors.append(f"{op.label}: {len(pts)} points ({len(where)} distinct), expected {want}")
        words = checks.letters(images)
        for p in pts:
            x = (p.point.edge, p.point.t)
            if (p.period != op.k or op.k % p.least_period
                    or not checks.returns_after(words, x, p.least_period)
                    or not checks.returns_after(words, x, op.k)):
                errors.append(f"{op.label}: point {fmt(x)} does not return after its period")
                break
        return errors


class Semiconj:
    """Exact beta breakpoints, tail and Holder bounds, and the injectivity
    certifier over the letter-order families of phi2 and phi3."""

    name = "semiconj"
    deadline_s = 60.0
    SIZES = {"full": {"beta": {"phi2": 7, "phi3": 4}, "family": None},
             "smoke": {"beta": {"phi2": 3, "phi3": 2}, "family": 2}}
    DEPTH = 2

    def __init__(self, seed, scale, root):
        rng = random.Random(seed)
        size = self.SIZES[scale]
        self.beta_levels = size["beta"]
        self.images = {"phi2": shuffle(PHI2, rng), "phi3": shuffle(PHI3, rng)}
        for base, tag in ((PHI2, "f2"), (PHI3, "f3")):
            for i, images in enumerate(letter_order_family(base)[:size["family"]]):
                self.images[f"{tag}_{i}"] = images
        self.endos = parse_maps(self.images)

    def ops(self):
        from wedgedyn import graphmap, semiconj

        out = []
        for name, k in self.beta_levels.items():
            endo = self.endos[name]
            out.append(Op(f"beta_breakpoints {name} k={k}", "beta", name, k,
                          lambda e=endo, k=k: semiconj.beta_breakpoints(graphmap.TightMap(e), k)))
            out.append(Op(f"tail_bound {name} k={k}", "tail", name, k,
                          lambda e=endo, k=k: semiconj.tail_bound(graphmap.TightMap(e), k)))
            out.append(Op(f"holder_bound {name}", "holder", name, 0,
                          lambda e=endo: semiconj.holder_bound(graphmap.TightMap(e))))
        for name, endo in self.endos.items():
            if name[:2] in ("f2", "f3"):
                out.append(Op(f"shadow_pairs {','.join(self.images[name])}", "shadow", name,
                              self.DEPTH, lambda e=endo: semiconj.shadow_pairs(
                                  graphmap.TightMap(e), depth=self.DEPTH)))
        return out

    def canon(self, label, res) -> str:
        special = canon_outcome(res)
        if special is not None:
            return special
        if label.startswith("beta_breakpoints"):
            return fmt((res.level, res.M, res.tail_bound, res.values))
        if label.startswith("shadow_pairs"):
            witness = None if res.witness is None else [(cp.point, cp.base) for cp in res.witness]
            return fmt((res.status, res.depth, res.delta, res.norm, witness))
        return fmt(res)

    def outputs(self, op, res) -> int:
        if op.kind == "beta":
            return sum(len(v) for v in res.values)
        return 1

    def check(self, ops, results):
        errors = []
        tails = {}
        for op in ops:
            res = results[op.label]
            if isinstance(res, (Failed, Refused)):
                errors.append(f"{op.label}: unexpected {canon_outcome(res)}")
                continue
            images = self.images[op.item]
            if op.kind == "beta":
                tails[op.item] = res.tail_bound
                if (res.level != op.k or res.M != len(images[0])
                        or not checks.beta_matches_prefix_walk(images, op.k, res.values)):
                    errors.append(f"{op.label}: A^k beta differs from the prefix walk of psi^k")
            elif op.kind == "tail":
                if not res > 0 or tails.get(op.item, res) != res:
                    errors.append(f"{op.label}: tail bound {res} is not the beta table's")
            elif op.kind == "holder":
                if not 0 < res <= 1:
                    errors.append(f"{op.label}: Holder exponent {res} outside (0, 1]")
            else:
                want = GOLDEN["verdicts"][",".join(images)]
                if [res.status, res.depth] != want:
                    errors.append(f"{op.label}: verdict {res.status}@{res.depth}, expected {want}")
                elif res.status == "NOT_INJECTIVE":
                    x, y = ((cp.point.edge, cp.point.t, cp.base) for cp in res.witness)
                    if not checks.same_lifted_image(images, x, y, res.depth):
                        errors.append(f"{op.label}: witness points do not meet")
        return errors


class Lattice:
    """Seeded random nonsingular integer matrices of rank 2 to 4, entries in
    [-3, 3]: spectra, Bowen-Franks groups BF_1..BF_6, Psi and upsilon."""

    name = "lattice"
    # The slowest healthy matrix takes about 0.12 s even on a host running at
    # half speed; two known spectral inputs hang, and each hang costs the
    # full deadline in every pass.
    deadline_s = 0.5
    SIZES = {"full": 60, "smoke": 2}
    LEVELS = 6
    BONDS = ((1, 2), (2, 4), (3, 6))
    # a root of unity of degree <= 4 over Q has one of these orders
    UNITY_ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12)

    def __init__(self, seed, scale, root):
        from wedgedyn import intmat

        rng = random.Random(seed)
        self.rows = []
        for n in (2, 3, 4):
            for _ in range(self.SIZES[scale]):
                while True:
                    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                    if checks.det(rows):
                        break
                self.rows.append(rows)
        self.matrices = [intmat.IntMatrix(tuple(map(tuple, r))) for r in self.rows]

    def ops(self):
        return [Op(f"matrix {i} rank {m.dim}", "matrix", str(i), self.LEVELS,
                   lambda m=m: self._run(m)) for i, m in enumerate(self.matrices)]

    def _run(self, a):
        from wedgedyn import bf, errors, spectra

        rep = spectra.spectral(a)
        out = {"charpoly": tuple(rep.charpoly), "expanding": rep.is_expanding,
               "eigenvalues": len(rep.eigenvalues), "groups": [], "bonds": [],
               "refused": None}
        unit = tuple(int(i == 0) for i in range(a.dim))
        try:
            groups = {}
            for k in range(1, self.LEVELS + 1):
                g = bf.BFGroup(a, k)
                groups[k] = g
                out["groups"].append((k, g.order, g.invariant_factors, g.diagonal,
                                      bf.psi(g.reduce(unit)).coords))
            for i, j in self.BONDS:
                e = groups[i].reduce(unit)
                y = bf.upsilon(e, j)
                out["bonds"].append((i, j, y.r, bf.psi(y).coords, bf.psi(e).coords))
        except errors.RootOfUnitySpectrum:
            out["refused"] = "RootOfUnitySpectrum"
        return out

    def canon(self, label, res) -> str:
        special = canon_outcome(res)
        if special is not None:
            return special
        return fmt((res["charpoly"], res["expanding"], res["eigenvalues"], res["refused"],
                    res["groups"], res["bonds"]))

    def outputs(self, op, res) -> int:
        return len(res["groups"])

    @staticmethod
    def known_defect(res) -> bool:
        """The two spectral defects the generator keeps: the hang inside
        polys.isolate_real_roots, cut by the deadline, and the
        ZeroDivisionError raised in the Vieta branch of spectra.spectral.
        Any other failure is a gate error."""
        if res.kind == "deadline":
            return "polys.isolate_real_roots" in res.stack
        return res.kind == "ZeroDivisionError" and res.stack[-1:] == ("spectra.spectral",)

    def check(self, ops, results):
        try:
            import sympy
            from sympy.matrices.normalforms import smith_normal_form
        except ImportError:
            sympy = None
        errors = []
        for op in ops:
            res = results[op.label]
            if isinstance(res, Failed):
                if not self.known_defect(res):
                    where = res.stack[-1] if res.stack else "outside the program"
                    errors.append(f"{op.label}: failed {res.kind} in {where}, "
                                  "not a known spectral defect")
                continue
            if isinstance(res, Refused):
                continue
            rows = self.rows[int(op.item)]
            n = len(rows)
            unity = any(checks.det(checks.minus_identity(checks.mat_pow(rows, m))) == 0
                        for m in self.UNITY_ORDERS)
            if (res["refused"] is not None) != unity:
                errors.append(f"{op.label}: refusal {res['refused']} but root of unity is {unity}")
            if sympy is not None:
                cp = [int(c) for c in sympy.Matrix(rows).charpoly().all_coeffs()]
                if cp != list(res["charpoly"]):
                    errors.append(f"{op.label}: charpoly {res['charpoly']}, sympy says {cp}")
            unit = [int(i == 0) for i in range(n)]
            for k, order, inv, diag, x in res["groups"]:
                mk = checks.minus_identity(checks.mat_pow(rows, k))
                d = abs(checks.det(mk))
                if not (order == prod(diag) == d == prod(inv)):
                    errors.append(f"{op.label} k={k}: order {order}, |det(A^k - I)| = {d}")
                chain = all(b % a == 0 for a, b in zip(diag, diag[1:]))
                if not chain or inv != tuple(v for v in diag if v > 1):
                    errors.append(f"{op.label} k={k}: diagonal {diag} is not a Smith form")
                if sympy is not None:
                    snf = smith_normal_form(sympy.Matrix(mk), domain=sympy.ZZ)
                    want = sorted(abs(int(snf[i, i])) for i in range(n))
                    if want != sorted(diag):
                        errors.append(f"{op.label} k={k}: SNF {diag}, sympy says {want}")
                if not checks.solves_mod_one(mk, x, unit) or not all(0 <= c < 1 for c in x):
                    errors.append(f"{op.label} k={k}: Psi(e_1) misses (A^k - I) x = e_1 mod 1")
            for i, j, _, y, x in res["bonds"]:
                if y != x:
                    errors.append(f"{op.label}: Psi(upsilon(e, {j})) != Psi(e) at level {i}")
        return errors


def load_jobs(root):
    """The (output name, argv) job list of scripts/reproduce.py."""
    spec = importlib.util.spec_from_file_location("reproduce", root / "scripts" / "reproduce.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.JOBS


class Reproduce:
    """The scripts/reproduce.py jobs through wedgedyn.cli.main, in-process.

    The seed only permutes the job order, so state leaking from one job
    into the next would show up as a changed output.
    """

    name = "reproduce"
    deadline_s = 60.0

    def __init__(self, seed, scale, root):
        import wedgedyn.cli  # noqa: F401  (imported here so set-up pays for it)
        from wedgedyn import dsl

        self.root = root
        self.jobs = list(load_jobs(root))
        random.Random(seed).shuffle(self.jobs)
        maps = root / "maps"
        for path in sorted(maps.glob("*.map")):
            dsl.parse(path.read_text(encoding="utf-8"))
        scratch = root / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="svg-", dir=scratch))

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def ops(self):
        return [Op(f"job {name}", "job", name, 0, lambda name=name, argv=argv: self._run(argv))
                for name, argv in self.jobs]

    def _run(self, argv):
        from wedgedyn import cli

        argv = list(argv)
        argv[1] = str(self.root / "maps" / argv[1])
        svg = None
        for i, a in enumerate(argv):
            if a.endswith(".svg"):
                svg = a
                argv[i] = str(self.tmp / a)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        figure = None if svg is None else (svg, (self.tmp / svg).read_bytes())
        return code, buf.getvalue().encode(), figure

    def canon(self, label, res) -> str:
        special = canon_outcome(res)
        if special is not None:
            return special
        code, text, figure = res
        parts = [str(code), hashlib.sha256(text).hexdigest()]
        if figure is not None:
            parts.append(hashlib.sha256(figure[1]).hexdigest())
        return " ".join(parts)

    def outputs(self, op, res) -> int:
        return 1

    def check(self, ops, results):
        errors = []
        out_dir = self.root / "out"
        for op in ops:
            res = results[op.label]
            if isinstance(res, (Failed, Refused)):
                errors.append(f"{op.label}: unexpected {canon_outcome(res)}")
                continue
            code, text, figure = res
            files = [(op.item, text)] + ([figure] if figure is not None else [])
            if code != 0:
                errors.append(f"{op.label}: exit code {code}")
            for fname, data in files:
                if hashlib.sha256(data).hexdigest() != GOLDEN["reproduce"][fname]:
                    errors.append(f"{op.label}: {fname} differs from the pinned output")
                committed = out_dir / fname
                if committed.is_file() and committed.read_bytes() != data:
                    errors.append(f"{op.label}: {fname} differs from out/{fname}")
        return errors


WORKLOADS = {cls.name: cls for cls in (Census, Semiconj, Lattice, Reproduce)}
