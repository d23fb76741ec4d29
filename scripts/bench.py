#!/usr/bin/env python3
"""Benchmark this checkout against a parent commit, in alternating pairs.

    python3 scripts/bench.py --out BENCH.json --parent HEAD~1 --claim semiconj:wall_s

The change is the working tree of the checkout this file sits in. The
parent is the committed tree of --parent, unpacked by `git archive` into a
temporary directory that is removed again; nothing under .git is written.
Each side runs with its own empty PYTHONPYCACHEPREFIX, a directory in that
same temporary tree, so neither side reads the .pyc files left in the
working tree's __pycache__ directories and both compile their modules
once, on their first run; `setup_s` then compares like with like.
For every workload and for seeds 1 and 5, both sides run
`perfbench/run.py --workload W --seed S --seconds 12 --trace 0` in 10
pairs, and the side that runs first alternates from pair to pair. After
the pairs, each side runs once more with `--trace 1` for the same 12
seconds, and the calls and self time per pass of every layer that
BENCHMARK.json's per_layer list names are recorded for both sides. The
output holds, per metric, the median and quartiles of each side's runs,
the runs themselves and the pairs the change won and lost; per workload
and seed, the output digests, whether every run passed its gates, and the
traced layer counts; the non-blank line counts of src/wedgedyn and of
tests on both sides, so that code moved from the package into the tests
shows as a move, and of each module of src/wedgedyn, so that code moved
from one module into another shows too; and the count of public names
that the package's __init__.py imports on both sides, so that a narrowed
surface shows.

Before the pairs, each side times `import wedgedyn.cli` in 5 fresh
interpreters, alternating sides, with the same PYTHONPYCACHEPREFIX as its
runs; the `startup` block holds the best time per side and the count of
modules the import adds to sys.modules.

The claim is met on a seed when the change wins at least 9 of the 10
pairs and its median beats the parent's by more than the parent's
interquartile range. Every other pairing of workload, seed and end-to-end
metric gets a no-regression verdict against BENCHMARK.json's bound, taken
as a fraction of the parent's median: worse when the change's median is
worse than the parent's by more than the bound, unresolved when the
parent's IQR is wider than the bound unless every change run beats every
parent run, and ok otherwise.

The script writes only the --out file; the checkout is left as it was.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 5)
SECONDS = 12
PAIRS = 10
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
    _BENCHMARK = json.load(fh)
WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
# end-to-end metric -> 1 when lower is better, -1 when higher is
METRICS = {m["name"]: 1 if m["better"] == "lower" else -1 for m in _BENCHMARK["end_to_end"]}
# end-to-end metric -> how far it may worsen, as a fraction of the parent's median
BOUNDS = {m["name"]: m["bound"] for m in _BENCHMARK["end_to_end"]}
# the traced layers: every per_layer name with a call count
LAYERS = tuple(m["name"].removesuffix(".calls") for m in _BENCHMARK["per_layer"]
               if m["name"].endswith(".calls"))
LAYER_FIELDS = ("calls", "self_s")
SEED_NOTES = {1: "the seed used while building", 5: "a seed not used while building"}
STARTUP_RUNS = 5
# for a fresh interpreter: the seconds `import wedgedyn.cli` takes and the
# count of modules it adds to sys.modules, with src put first on sys.path
STARTUP_CODE = ("import sys, time; sys.path.insert(0, {src!r}); before = len(sys.modules); "
                "start = time.perf_counter(); import wedgedyn.cli; "
                "print(time.perf_counter() - start, len(sys.modules) - before)")


def run_once(checkout: Path, pycache: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One `run.py --trace T` in checkout, compiling into and reading from
    pycache only: its info line, with the metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {"digest": json.loads(info_line)["digest"], "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def startup_once(checkout: Path, pycache: Path) -> tuple:
    """(seconds, modules added) of one `import wedgedyn.cli` in a fresh
    interpreter in checkout, compiling into and reading from pycache."""
    code = STARTUP_CODE.format(src=str(checkout / "src"))
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    seconds, modules = proc.stdout.split()
    return float(seconds), int(modules)


def summarize_startup(samples: list) -> dict:
    """samples: (seconds, modules added) per import. The best time, with
    the module count of that run, and every run's time."""
    best_s, modules = min(samples)
    return {"best_s": best_s, "modules_added": modules, "runs_s": [s for s, _ in samples]}


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list) -> dict:
    """pairs: (parent run, change run) in the order they were taken."""
    runs = {side: [p[i] for p in pairs] for i, side in enumerate(("parent", "change"))}
    metrics = {}
    for name, sign in METRICS.items():
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum(sign * c < sign * p for p, c in zip(parent, change))
        losses = sum(sign * c > sign * p for p, c in zip(parent, change))
        metrics[name] = {"better": "lower" if sign > 0 else "higher",
                         "parent": quartiles(parent), "change": quartiles(change),
                         "change_wins": wins, "change_losses": losses,
                         "parent_runs": parent, "change_runs": change}
    return {"pairs": len(pairs),
            "digests": sorted({r["digest"] for side in runs.values() for r in side}),
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "metrics": metrics}


def summarize_layers(traced: dict) -> dict:
    """traced: side -> one `run.py --trace 1` run. Per layer, each side's
    calls and self time per pass, with the traced runs' digests and gates."""
    return {"digests": sorted({r["digest"] for r in traced.values()}),
            "all_correct": all(r["correct"] for r in traced.values()),
            "layers": {layer: {field: {side: r["metrics"][f"{layer}.{field}"]
                                       for side, r in traced.items()}
                               for field in LAYER_FIELDS}
                       for layer in LAYERS}}


def claim_verdict(metric: dict) -> str:
    sign = 1 if metric["better"] == "lower" else -1
    parent, change = metric["parent"], metric["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])
    wins = metric["change_wins"]
    met = wins >= 0.9 * PAIRS and gain > iqr
    return (f"{'met' if met else 'not met'}: {wins} of {PAIRS} pairs, median "
            f"{parent['median']:.4g} -> {change['median']:.4g} "
            f"({-sign * gain / parent['median']:+.1%}), parent IQR {iqr:.4g}")


def regression_verdict(metric: dict, bound: float) -> str:
    """worse when the change's median is worse than the parent's by more
    than bound times the parent's median; else unresolved when the parent's
    IQR is wider than that, unless every change run beats every parent run;
    else ok."""
    sign = 1 if metric["better"] == "lower" else -1
    parent, change = metric["parent"], metric["change"]
    allowed = bound * abs(parent["median"])
    iqr = parent["q3"] - parent["q1"]
    beats_all = (max(sign * c for c in metric["change_runs"])
                 < min(sign * p for p in metric["parent_runs"]))
    if sign * (change["median"] - parent["median"]) > allowed:
        verdict = "worse"
    elif iqr > allowed and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "ok"
    moved = (f" ({change['median'] / parent['median'] - 1:+.1%})" if parent["median"] else "")
    return (f"{verdict}: median {parent['median']:.4g} -> {change['median']:.4g}{moved}, "
            f"bound {allowed:.4g} ({bound:.0%} of the parent's median), parent IQR {iqr:.4g}")


def nonblank_lines_by_module(directory: Path) -> dict:
    """File name -> non-blank lines, for the .py files directly in directory."""
    return {f.name: sum(1 for line in f.read_text(encoding="utf-8").splitlines() if line.strip())
            for f in sorted(directory.glob("*.py"))}


def nonblank_lines(directory: Path) -> int:
    """Non-blank lines of the .py files directly in directory."""
    return sum(nonblank_lines_by_module(directory).values())


def exported_names(init: Path) -> int:
    """The names without a leading underscore that the import statements
    of the module file init bind, read from its AST."""
    tree = ast.parse(init.read_text(encoding="utf-8"))
    return sum(1 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names
               if not (alias.asname or alias.name).startswith("_"))


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "cores": os.cpu_count(),
            "note": "one benchmark process at a time"}


def bench(parent: Path, parent_commit: str, claim: str | None, pycache: Path) -> dict:
    """pycache: an empty directory; each side compiles into its own
    subdirectory of it."""
    claimed, _, claimed_metric = (claim or "").partition(":")
    dirs = {"parent": parent, "change": ROOT}
    prefixes = {side: pycache / side for side in dirs}
    out = {
        "what": "perfbench/run.py end-to-end metrics, parent commit against this change, "
                "in alternating pairs (the side that runs first alternates); per metric the "
                "median and quartiles of each side's runs, the runs themselves, and how many "
                "pairs the change won and lost",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                   "--trace 0, then once per side with --trace 1 for the traced layers; "
                   "each side with its own empty PYTHONPYCACHEPREFIX",
        "parent_commit": parent_commit,
        "machine": machine(),
        "seeds": {str(s): SEED_NOTES[s] for s in SEEDS},
        "workloads": {},
        "src_nonblank_lines": {side: nonblank_lines(d / "src" / "wedgedyn")
                               for side, d in dirs.items()},
        "src_nonblank_lines_by_module": {side: nonblank_lines_by_module(d / "src" / "wedgedyn")
                                         for side, d in dirs.items()},
        "tests_nonblank_lines": {side: nonblank_lines(d / "tests") for side, d in dirs.items()},
        "src_exported_names": {side: exported_names(d / "src" / "wedgedyn" / "__init__.py")
                               for side, d in dirs.items()},
    }
    samples = {side: [] for side in dirs}
    for i in range(STARTUP_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            samples[side].append(startup_once(dirs[side], prefixes[side]))
    out["startup"] = {
        "what": f"best of {STARTUP_RUNS} fresh-interpreter `import wedgedyn.cli` times per "
                "side, with that side's PYTHONPYCACHEPREFIX, and the modules the import adds "
                "to sys.modules",
        **{side: summarize_startup(runs) for side, runs in samples.items()}}
    for w in WORKLOADS:
        out["workloads"][w] = {}
        for seed in SEEDS:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_once(dirs[side], prefixes[side], w, seed) for side in order}
                pairs.append((runs["parent"], runs["change"]))
                print(f"{w} seed {seed} pair {i + 1}/{PAIRS}: wall_s "
                      f"{runs['parent']['metrics']['wall_s']:.4f} -> "
                      f"{runs['change']['metrics']['wall_s']:.4f}", file=sys.stderr)
            out["workloads"][w][f"seed_{seed}"] = summarize(pairs)
            out["workloads"][w][f"seed_{seed}"]["traced"] = summarize_layers(
                {side: run_once(dirs[side], prefixes[side], w, seed, trace=1)
                 for side in ("parent", "change")})
    if claimed:
        out["claim"] = {
            "metric": claimed_metric, "workload": claimed,
            "rule": f"the change wins at least 9 of {PAIRS} pairs and its median beats the "
                    "parent's by more than the parent's interquartile range, on every seed",
            **{f"seed_{s}": claim_verdict(
                out["workloads"][claimed][f"seed_{s}"]["metrics"][claimed_metric])
               for s in SEEDS}}
    out["no_regression"] = {
        "rule": "per workload, seed and end-to-end metric other than the claim: worse when "
                "the change's median is worse than the parent's by more than BENCHMARK.json's "
                "bound, taken as a fraction of the parent's median; else unresolved when the "
                "parent's IQR is wider than that bound, unless every change run beats every "
                "parent run; else ok",
        **{w: {f"seed_{s}": {name: regression_verdict(m, BOUNDS[name])
                             for name, m in out["workloads"][w][f"seed_{s}"]["metrics"].items()
                             if (w, name) != (claimed, claimed_metric)}
               for s in SEEDS}
           for w in WORKLOADS}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="a claimed gain, judged by the rule above")
    args = ap.parse_args(argv)
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in WORKLOADS or metric not in METRICS:
            ap.error(f"--claim {args.claim}: needs one of {', '.join(WORKLOADS)} and an "
                     f"end-to-end metric ({', '.join(METRICS)})")
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()

    scratch = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        parent = scratch / "tree"
        parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(parent)],
                       input=git("archive", "--format=tar", parent_commit), check=True)
        result = bench(parent, parent_commit, args.claim, scratch / "pycache")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
