"""The pure parts of scripts/bench.py: the claim rule, the no-regression
verdict, pair counting, the line counts and the exported-name count. No
benchmark run and no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _metric(better, parent_q, change_median, wins):
    """A summarized metric: the parent's quartiles, the change's median and
    its pair wins out of bench.PAIRS."""
    q1, median, q3 = parent_q
    return {"better": better, "parent": {"q1": q1, "median": median, "q3": q3},
            "change": {"q1": change_median, "median": change_median, "q3": change_median},
            "change_wins": wins}


@pytest.mark.parametrize("metric, met", [
    # lower is better: parent median 1.0, IQR 0.5 (exact in binary)
    (_metric("lower", (0.75, 1.0, 1.25), 0.25, 9), True),
    (_metric("lower", (0.75, 1.0, 1.25), 0.25, 10), True),
    (_metric("lower", (0.75, 1.0, 1.25), 0.25, 8), False),
    (_metric("lower", (0.75, 1.0, 1.25), 0.5, 10), False),  # gain equal to the IQR
    (_metric("lower", (0.75, 1.0, 1.25), 0.75, 10), False),  # gain below the IQR
    (_metric("lower", (0.75, 1.0, 1.25), 1.5, 10), False),  # a loss
    # higher is better: parent median 10, IQR 1
    (_metric("higher", (9.5, 10.0, 10.5), 12.0, 9), True),
    (_metric("higher", (9.5, 10.0, 10.5), 12.0, 8), False),
    (_metric("higher", (9.5, 10.0, 10.5), 11.0, 10), False),  # gain equal to the IQR
    (_metric("higher", (9.5, 10.0, 10.5), 8.0, 10), False),  # a loss
])
def test_claim_verdict(metric, met):
    assert bench.PAIRS == 10
    verdict = bench.claim_verdict(metric)
    assert verdict.startswith("met: " if met else "not met: ")
    assert f"{metric['change_wins']} of 10 pairs" in verdict


def _judged(better, parent_runs, change_runs):
    """A summarized metric from each side's runs, as summarize writes it."""
    return {"better": better, "parent": bench.quartiles(parent_runs),
            "change": bench.quartiles(change_runs),
            "parent_runs": parent_runs, "change_runs": change_runs}


_STEADY = [1.0, 1.0, 1.0, 1.0, 1.0]
_WIDE = [0.5, 0.75, 1.0, 1.25, 1.5]  # median 1, IQR 0.5


@pytest.mark.parametrize("better, parent_runs, change_runs, bound, verdict", [
    # lower is better, a steady parent
    ("lower", _STEADY, [1.0, 1.25, 1.25, 1.25, 1.5], 0.25, "ok"),  # worse by the bound exactly
    ("lower", _STEADY, [1.25, 1.5, 1.5, 1.5, 2.0], 0.25, "worse"),
    ("lower", _STEADY, [0.5, 0.5, 0.5, 0.5, 0.5], 0.25, "ok"),  # a gain
    # a parent IQR of 0.5 against a bound of 0.25
    ("lower", _WIDE, [0.5, 0.75, 1.0, 1.25, 1.5], 0.25, "unresolved"),
    ("lower", _WIDE, [0.25, 0.25, 0.25, 0.25, 0.5], 0.25, "unresolved"),  # ties the best parent run
    ("lower", _WIDE, [0.25, 0.25, 0.25, 0.25, 0.25], 0.25, "ok"),  # beats every parent run
    ("lower", _WIDE, [1.5, 1.5, 1.5, 1.5, 1.5], 0.25, "worse"),
    ("lower", _WIDE, [0.5, 0.75, 1.0, 1.25, 1.5], 0.5, "ok"),  # IQR equal to the bound
    # higher is better: parent median 10
    ("higher", [10.0] * 5, [8.0] * 5, 0.25, "ok"),
    ("higher", [10.0] * 5, [7.0] * 5, 0.25, "worse"),
    ("higher", [5.0, 7.5, 10.0, 12.5, 15.0], [10.0] * 5, 0.25, "unresolved"),
    ("higher", [5.0, 7.5, 10.0, 12.5, 15.0], [16.0] * 5, 0.25, "ok"),
])
def test_regression_verdict(better, parent_runs, change_runs, bound, verdict):
    out = bench.regression_verdict(_judged(better, parent_runs, change_runs), bound)
    assert out.split(":")[0] == verdict
    assert f"({bound:.0%} of the parent's median)" in out


def test_workloads_and_metrics_come_from_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench.WORKLOADS == tuple(w["name"] for w in spec["workloads"])
    assert list(bench.METRICS) == [m["name"] for m in spec["end_to_end"]]
    assert bench.BOUNDS == {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _run(**values):
    return {"digest": "d", "correct": True,
            "metrics": {name: values.get(name, 1.0) for name in bench.METRICS}}


def test_summarize_counts_ties_for_neither_side():
    assert bench.METRICS["wall_s"] == 1 and bench.METRICS["ok_share"] == -1
    pairs = [(_run(wall_s=1.0, ok_share=1.0), _run(wall_s=1.0, ok_share=1.0)),  # ties
             (_run(wall_s=1.0, ok_share=0.9), _run(wall_s=0.9, ok_share=1.0)),  # change wins
             (_run(wall_s=1.0, ok_share=1.0), _run(wall_s=1.1, ok_share=0.9)),  # parent wins
             (_run(wall_s=2.0, ok_share=0.5), _run(wall_s=1.0, ok_share=0.8))]  # change wins
    out = bench.summarize(pairs)
    assert out["pairs"] == 4 and out["digests"] == ["d"] and out["all_correct"]
    for name in ("wall_s", "ok_share"):
        m = out["metrics"][name]
        assert (m["change_wins"], m["change_losses"]) == (2, 1)
    assert out["metrics"]["wall_s"]["parent_runs"] == [1.0, 1.0, 1.0, 2.0]
    assert out["metrics"]["ok_share"]["change_runs"] == [1.0, 1.0, 0.9, 0.8]
    # every other metric tied in every pair
    m = out["metrics"]["setup_s"]
    assert (m["change_wins"], m["change_losses"]) == (0, 0)


def test_summarize_layers_keeps_each_sides_calls_and_self_time():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    assert set(bench.LAYERS) == {n.removesuffix(".calls") for n in names if n.endswith(".calls")}
    assert "intmat.snf" in bench.LAYERS and "trace_overhead" not in bench.LAYERS

    def traced(digest, correct, snf_calls):
        metrics = {f"{layer}.{field}": 0.0 for layer in bench.LAYERS
                   for field in ("calls", "busy_s", "self_s")}
        metrics.update({"intmat.snf.calls": snf_calls, "intmat.snf.self_s": snf_calls / 1e4,
                        "trace_overhead": 1.5})
        return {"digest": digest, "correct": correct, "metrics": metrics}

    out = bench.summarize_layers({"parent": traced("d", True, 948), "change": traced("d", False, 900)})
    assert out["digests"] == ["d"] and not out["all_correct"]
    assert list(out["layers"]) == list(bench.LAYERS)
    assert out["layers"]["intmat.snf"] == {"calls": {"parent": 948, "change": 900},
                                           "self_s": {"parent": 0.0948, "change": 0.09}}
    assert all(set(v) == {"calls", "self_s"} for v in out["layers"].values())


def test_nonblank_lines(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n   \ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("\n# a comment counts\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("z = 3\n", encoding="utf-8")
    assert bench.nonblank_lines(tmp_path) == 3
    assert bench.nonblank_lines_by_module(tmp_path) == {"a.py": 2, "b.py": 1}


def test_exported_names(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text('''"""A docstring naming Fake, which is no import."""

import json
import os.path
import numpy as np
from .a import (
    One,
    two as Two,
    _private,
)
from .b import three, _four as five, six as _six
from . import c

__all__ = ["One"]
_hidden = 1
''', encoding="utf-8")
    # json, os, np, One, Two, three, five, c: `import os.path` binds os
    assert bench.exported_names(init) == 8


def test_claim_form_is_workload_colon_metric(capsys):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--out", "unused.json", "--parent", "HEAD", "--claim", "lattice/wall_s"])
    assert exc.value.code == 2
    assert "--claim lattice/wall_s" in capsys.readouterr().err
