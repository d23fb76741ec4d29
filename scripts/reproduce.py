#!/usr/bin/env python3
"""Regenerate every table and figure from the map files in maps/.

Writes CSV/JSON tables and SVG figures into the output directory (default
out/). All output is exact-rational and byte-deterministic, so rerunning
must produce identical files; pass --check to verify that instead of
overwriting. --check renders into a temporary directory and never writes
into the output directory.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from wedgedyn.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
MAPS = REPO / "maps"

JOBS = [
    ("phi1_analyze.json", ["analyze", "phi1.map"]),
    ("phi2_analyze.json", ["analyze", "phi2.map"]),
    ("phi3_analyze.json", ["analyze", "phi3.map"]),
    ("phi2_bf.csv", ["bf", "phi2.map", "--k", "8", "--format", "csv"]),
    ("golden_bf.csv", ["bf", "phi2.map", "--matrix", "[[2,1],[1,1]]",
                       "--k", "5", "--format", "csv"]),
    ("phi2_fix_k1.csv", ["fix", "phi2.map", "--k", "1"]),
    ("phi2_fix_k2.csv", ["fix", "phi2.map", "--k", "2"]),
    ("phi2_torus_k1.csv", ["torus", "phi2.map", "--k", "1"]),
    ("phi1_rotset.csv", ["rotset", "phi1.map", "--svg", "phi1_rotset.svg"]),
    ("phi2_beta_k4.csv", ["beta", "phi2.map", "--k", "4",
                          "--svg", "phi2_beta.svg"]),
    ("phi2_shadow.json", ["shadow", "phi2.map"]),
    ("phi3_shadow.json", ["shadow", "phi3.map"]),
]


def run_job(out_dir: Path, name: str, argv: list) -> bytes:
    argv = list(argv)
    argv[1] = str(MAPS / argv[1])
    for i, a in enumerate(argv):
        if a.endswith(".svg"):
            argv[i] = str(out_dir / a)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{name}: exit code {code}")
    return buf.getvalue().encode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=str(REPO / "out"), help="output directory")
    ap.add_argument("--check", action="store_true",
                    help="compare against existing files instead of writing")
    args = ap.parse_args()
    out_dir = Path(args.out)
    if args.check:
        return check(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in JOBS:
        target = out_dir / name
        target.write_bytes(run_job(out_dir, name, argv))
        print(f"wrote {target}")
    return 0


def check(out_dir: Path) -> int:
    """Render every job into a temporary directory and compare it, figures
    included, with out_dir byte for byte; out_dir is only read."""
    stale = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, argv in JOBS:
            (tmp / name).write_bytes(run_job(tmp, name, argv))
            for f in [name] + [a for a in argv if a.endswith(".svg")]:
                target = out_dir / f
                if not target.exists() or target.read_bytes() != (tmp / f).read_bytes():
                    stale.append(f)
    if stale:
        print("stale outputs:", ", ".join(stale))
        return 1
    print("all outputs up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
