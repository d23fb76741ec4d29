#!/usr/bin/env python3
"""wedgedyn benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload census --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The program is imported from src/ of the
checkout this file sits in. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. The line before it
records the output digest, the sample counts and any gate errors.

Exit codes: 0 all outputs correct, 1 an output gate failed, 2 the program
sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MIN_PASSES = 5
# reference() on a quiet 2-vCPU Xeon VM (the fastest of many runs); the
# unit of scaled times
REFERENCE_S = 0.002


class Deadline(BaseException):
    """Raised by SIGALRM when an operation outlives its deadline.

    A BaseException, so that no `except Exception` inside the program can
    swallow it."""


def _alarm(signum, frame):
    raise Deadline()


class PassResult(NamedTuple):
    results: dict
    outputs: int
    latencies_ms: list   # raw; math.inf for a failed operation
    scaled_ms: list      # scaled to the reference speed; math.inf if failed
    failures: Counter


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic.

    It does the kind of work the program does (Fraction and int arithmetic,
    small tuples) and nothing else, so its time tracks how fast this host
    runs that work at the moment: co-tenant load on a shared host slows both
    alike. An operation's time divided by the reference time around it is
    steady where either alone swings by half."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 340):
        x = Fraction(i % 17 - 8, i % 11 + 1)
        total = total + x * x if total < 50 else x
        vec = tuple((i * j) % 7 for j in range(4))
        total += sum(vec) % 3
    return time.perf_counter() - start


def program_frames(exc) -> tuple:
    """The program's functions on the stack where exc was raised, outermost
    first, as module.qualname without the package prefix."""
    frames, tb = [], exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("wedgedyn."):
            frames.append(f"{module[len('wedgedyn.'):]}.{tb.tb_frame.f_code.co_qualname}")
        tb = tb.tb_next
    return tuple(frames)


def run_pass(wl, ops, tracer=None, profiler=None, deadline_scale=1.0) -> PassResult:
    """Run every operation once. Between operations the reference loop runs,
    untimed by the operations; each operation's scaled time uses the mean
    of the reference times just before and just after it. A profiler, if
    given, is on only while an operation runs."""
    from workloads import Failed, Refused
    from wedgedyn import errors

    refusals = (errors.RootOfUnitySpectrum, errors.NotExpanding, errors.BudgetExceeded)
    deadline = wl.deadline_s * deadline_scale
    results, latencies, scaled, failures = {}, [], [], Counter()
    outputs = 0
    ref_before = reference()
    for op in ops:
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        if profiler is not None:
            profiler.enable()
        try:
            res = op.run()
        except Deadline as exc:
            res = Failed("deadline", program_frames(exc))
        except refusals as exc:
            res = Refused(type(exc).__name__)
        except Exception as exc:  # any other exception is a failed operation
            res = Failed(type(exc).__name__, program_frames(exc))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if profiler is not None:
                profiler.disable()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.settle()
        ref_after = reference()
        results[op.label] = res
        if isinstance(res, Failed):
            failures[res.kind] += 1
            latencies.append(math.inf)
            scaled.append(math.inf)
        else:
            latencies.append(elapsed * 1e3)
            scaled.append(elapsed * 1e3 * REFERENCE_S / ((ref_before + ref_after) / 2))
            if not isinstance(res, Refused):
                outputs += wl.outputs(op, res)
        ref_before = ref_after
    return PassResult(results, outputs, latencies, scaled, failures)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def warm_reference() -> float:
    """The fastest of three reference() runs, timed in this warm process."""
    return min(reference() for _ in range(3))


def probe_setup(name, seed) -> float:
    """Time one set-up in a fresh interpreter: importing wedgedyn.cli with
    nothing but sys and time loaded before it, plus building the inputs.
    The benchmark's own modules are imported outside the timed spans.

    The time is scaled like an operation's, by the reference loop timed in
    this process just before and just after the fresh interpreter runs."""
    ref_before = warm_reference()
    code = "\n".join([
        "import sys, time",
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]",
        "start = time.perf_counter()",
        "import wedgedyn.cli",
        "imported = time.perf_counter() - start",
        "import workloads",
        "start = time.perf_counter()",
        f"wl = workloads.WORKLOADS[{name!r}]({seed}, 'full', workloads.HERE.parent)",
        "print(imported + time.perf_counter() - start)",
        "getattr(wl, 'close', lambda: None)()",
    ])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    ref_after = warm_reference()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.strip().splitlines()[-1])
    return seconds * REFERENCE_S / ((ref_before + ref_after) / 2)


def measure(wl, ops, seconds, between, min_passes=MIN_PASSES):
    """Run passes until `seconds` have passed and there are `min_passes` of
    them; a hard cap keeps a slow machine inside its time limit. `between`
    runs after every pass. Returns the passes and the set of output digests
    seen. A pass keeps no results once digested, so retained outputs do not
    grow the heap from pass to pass."""
    from workloads import digest

    passes, digests = [], set()
    start = time.perf_counter()
    while True:
        p = run_pass(wl, ops)
        digests.add(digest(wl, p.results))
        passes.append(p._replace(results=None))
        between()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(passes) >= min_passes or elapsed >= 4 * seconds:
            return passes, digests


def per_op(passes, field="scaled_ms", pick=statistics.median):
    """Each operation's latency over the passes, in ms (inf when it failed
    in most passes)."""
    return [pick(col) for col in zip(*(getattr(p, field) for p in passes))]


def pass_seconds(latencies_ms):
    """One pass over the input set: the sum of the operations that did not fail."""
    return sum(x for x in latencies_ms if x != math.inf) / 1e3


def fractions_self_share(wl, ops) -> float:
    """Share of self time spent in fractions.py during one profiled pass."""
    prof = cProfile.Profile()
    run_pass(wl, ops, profiler=prof, deadline_scale=2.0)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    frac = sum(v[2] for k, v in stats.items() if k[0].endswith("fractions.py"))
    return frac / total if total else 0.0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]

    signal.signal(signal.SIGALRM, _alarm)
    import wedgedyn.cli  # noqa: F401
    wl = cls(args.seed, "full", ROOT)
    try:
        return report(wl, args)
    finally:
        getattr(wl, "close", lambda: None)()


def report(wl, args) -> int:
    from workloads import digest

    ops = wl.ops()
    warm = run_pass(wl, ops)
    want = digest(wl, warm.results)
    info = {"workload": args.workload, "seed": args.seed, "digest": want}

    if args.trace == 0:
        # set-up probes run between passes, so they sample the whole run
        setups = []
        passes, digests = measure(
            wl, ops, args.seconds,
            lambda: setups.append(probe_setup(args.workload, args.seed)))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_PROBES:
            setups.append(probe_setup(args.workload, args.seed))
    else:
        import checks
        import tracer as tr

        # (image words, k, distinct points) of every traced census; the
        # itinerary counts are worked out after the passes, outside any span
        censuses = []

        def record_census(call_args, result):
            m, k = call_args
            censuses.append((m.endo.images, k, len(result)))

        observers = ({"graphmap.TightMap.periodic_points": record_census}
                     if wl.name == "census" else {})
        tracer = tr.Tracer(observers=observers)
        traced, spans, traced_digests = [], [], set()

        def traced_pass():
            tracer.install()
            try:
                p = run_pass(wl, ops, tracer=tracer)
            finally:
                tracer.uninstall()
            spans.append(tracer.take())
            traced_digests.add(digest(wl, p.results))
            traced.append(p._replace(results=None))

        # traced passes alternate with untraced ones; three pairs are enough
        # for per-layer figures, which carry no bound
        passes, digests = measure(wl, ops, args.seconds, traced_pass, min_passes=3)
        digests |= traced_digests
        share = fractions_self_share(wl, ops)

    errors = wl.check(ops, warm.results)
    if digests != {want}:
        errors.append("outputs differ between passes" +
                      (" or with tracing on" if args.trace == 1 else ""))

    attempted = sum(len(p.latencies_ms) for p in passes)
    failures = sum((p.failures for p in passes), Counter())
    failed = sum(failures.values())
    ms = per_op(passes)
    wall = pass_seconds(ms)
    info.update({"passes": len(passes), "op_samples": len(ms),
                 "beyond_p90": len(ms) - math.ceil(0.9 * len(ms)),
                 "raw_wall_s": statistics.median(pass_seconds(p.latencies_ms) for p in passes),
                 "raw_best_wall_s": pass_seconds(per_op(passes, "latencies_ms", min)),
                 "failures": dict(failures), "gate_errors": errors[:20]})

    if args.trace == 0:
        info["setup_probes"] = len(setups)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "ok_share": (1 - failed / attempted, "share"),
            "peak_rss_mb": (peak_mb, "MB"),
            "outputs_per_s": (warm.outputs / wall, "1/s"),
            "op_p50_ms": (percentile(ms, 0.5), "ms"),
            "op_p90_ms": (percentile(ms, 0.9), "ms"),
        }
    else:
        # span times get the same reference scaling as their traced pass
        stats = [tr.summarize(pass_spans) for pass_spans in spans]
        scale = [pass_seconds(p.scaled_ms) / pass_seconds(p.latencies_ms) for p in traced]
        metrics = {}
        for name in tr.NAMES:
            metrics[f"{name}.calls"] = (stats[0][name][0], "count")
            for i, field in ((1, "busy_s"), (2, "self_s")):
                metrics[f"{name}.{field}"] = (
                    statistics.median(st[name][i] * f for st, f in zip(stats, scale)), "s")
        distinct = sum(n for _, _, n in censuses)
        itineraries = sum(checks.itinerary_count([str(w) for w in images], k)
                          for images, k, _ in censuses)
        metrics["graphmap.census.distinct_per_itinerary"] = (
            distinct / itineraries if itineraries else 0.0, "ratio")
        metrics["fractions.self_share"] = (share, "share")
        metrics["trace_overhead"] = (pass_seconds(per_op(traced)) / wall, "ratio")
        tr.write_spans(ROOT / ".bench_build" / "perfbench" /
                       f"spans-{args.workload}-seed{args.seed}.json", spans[0])
        info["traced_passes"] = len(traced)

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    if not (SRC / "wedgedyn" / "__init__.py").is_file():
        print(f"run.py: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import importlib.util

    found = importlib.util.find_spec("wedgedyn").origin
    if Path(found).resolve().parent != SRC / "wedgedyn":
        print(f"run.py: wedgedyn resolves to {found}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
