"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

They check that the output gates catch a changed byte, that a deadline
expiry and the known spectral defects count as failed operations, that
the census size does not depend on the seed, that tracing changes no
output, and that every workload finishes a smoke-sized pass.
"""

import argparse
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    old = signal.signal(signal.SIGALRM, run._alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


def smoke(name, seed=1):
    wl = WORKLOADS[name](seed, "smoke", ROOT)
    ops = wl.ops()
    return wl, ops, run.run_pass(wl, ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_finishes_a_smoke_pass(name):
    wl, ops, p = smoke(name)
    try:
        assert len(p.latencies_ms) == len(ops) > 0
        assert wl.check(ops, p.results) == []
        if name != "lattice":
            assert not p.failures
        assert p.outputs > 0
    finally:
        getattr(wl, "close", lambda: None)()


def test_changed_output_byte_fails_the_gate():
    wl, ops, p = smoke("reproduce")
    try:
        assert wl.check(ops, p.results) == []
        label = next(op.label for op in ops if op.item == "phi2_bf.csv")
        code, text, figure = p.results[label]
        flipped = bytearray(text)
        flipped[len(flipped) // 2] ^= 1
        p.results[label] = (code, bytes(flipped), figure)
        errors = wl.check(ops, p.results)
        assert any("phi2_bf.csv" in e for e in errors)
    finally:
        wl.close()


def test_changed_census_point_fails_the_gate():
    wl, ops, p = smoke("census")
    op = next(op for op in ops if op.kind == "periodic")
    p.results[op.label] = p.results[op.label][:-1]
    assert any(op.label in e for e in wl.check(ops, p.results))


@pytest.mark.parametrize("name", ["census", "semiconj", "reproduce"])
def test_a_failed_operation_fails_the_gate(name):
    wl, ops, p = smoke(name)
    try:
        p.results[ops[0].label] = workloads.Failed("RuntimeError", ("cli.main",))
        assert any(ops[0].label in e for e in wl.check(ops, p.results))
    finally:
        getattr(wl, "close", lambda: None)()


def test_only_the_known_spectral_defects_pass_the_lattice_gate():
    wl, ops, p = smoke("lattice")
    label = ops[0].label
    for failure, known in ((("deadline", ("spectra.spectral", "polys.isolate_real_roots",
                                          "polys.count_real_roots")), True),
                           (("ZeroDivisionError", ("spectra.spectral",)), True),
                           (("deadline", ("bf.BFGroup.__init__", "intmat.snf")), False),
                           (("ZeroDivisionError", ("spectra.spectral", "polys.evaluate")), False),
                           (("RuntimeError", ("spectra.spectral",)), False)):
        p.results[label] = workloads.Failed(*failure)
        errors = wl.check(ops, p.results)
        assert (errors == []) == known, (failure, errors)


def test_deadline_expiry_counts_as_a_failed_operation():
    wl = WORKLOADS["lattice"](1, "smoke", ROOT)
    wl.deadline_s = 1e-4
    p = run.run_pass(wl, wl.ops())
    assert p.failures["deadline"] > 0
    assert sum(x == float("inf") for x in p.latencies_ms) == sum(p.failures.values())


def test_known_spectral_defects_are_failures_not_crashes():
    from wedgedyn import intmat

    wl = WORKLOADS["lattice"](1, "smoke", ROOT)
    wl.rows = [[[3, -1, -3, -1], [1, 2, -1, 3], [3, 1, -2, 0], [0, 1, -1, 0]],
               [[-2, 1, 3, -3], [1, 3, -1, 3], [-3, 2, -3, 3], [3, 1, -2, 1]]]
    wl.matrices = [intmat.IntMatrix(tuple(map(tuple, r))) for r in wl.rows]
    wl.deadline_s = 0.5
    ops = wl.ops()
    p = run.run_pass(wl, ops)
    assert p.failures == {"deadline": 1, "ZeroDivisionError": 1}
    assert wl.check(ops, p.results) == []


def test_census_size_is_the_same_for_every_seed():
    sizes = set()
    for seed in range(40):
        wl = WORKLOADS["census"](seed, "full", ROOT)
        sizes.add(tuple(checks.census_size(wl.images[name], k)
                        for name in ("phi2", "phi3") for k in range(1, 7)))
    assert len(sizes) == 1
    counts = set()
    for seed in (1, 2, 3):
        wl, ops, p = smoke("census", seed)
        counts.add(tuple(wl.outputs(op, p.results[op.label]) for op in ops))
    assert len(counts) == 1


def test_census_size_formula_matches_the_program():
    from wedgedyn import Endomorphism, TightMap

    for images in (("aaab", "bbba"), ("abaa", "babb"), ("baaa", "bbab"), ("ab", "ba")):
        m = TightMap(Endomorphism.from_strings(2, *images))
        for k in range(1, 4):
            assert len(m.periodic_points(k)) == checks.census_size(images, k)


def test_tracing_changes_no_output_and_restores_bindings():
    from wedgedyn import bf, graphmap

    wl, ops, plain = smoke("census")
    before = (bf.psi, graphmap.psi, graphmap.TightMap.__dict__["periodic_points"])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert graphmap.psi is bf.psi is not before[0]
        traced = run.run_pass(wl, ops, tracer=tr)
    finally:
        tr.uninstall()
    assert (bf.psi, graphmap.psi, graphmap.TightMap.__dict__["periodic_points"]) == before
    assert digest(wl, traced.results) == digest(wl, plain.results)
    stats = tracer.summarize(tr.take())
    calls, busy, own = stats["graphmap.TightMap.periodic_points"]
    assert calls == sum(op.kind in ("periodic", "classes") for op in ops)
    assert 0 < own <= busy
    assert stats["bf.psi"][0] > 0


def test_letter_order_families_cover_every_order():
    for base, count in ((workloads.PHI2, 16), (workloads.PHI3, 49)):
        reps = workloads.letter_order_family(base)
        assert all(",".join(r) in workloads.GOLDEN["verdicts"] for r in reps)
        swap = str.maketrans("ab", "ba")
        covered = set()
        for wa, wb in reps:
            for x, y in ((wa, wb), (wb.translate(swap), wa.translate(swap))):
                covered |= {(x, y), (x[::-1], y[::-1])}
        assert len(covered) == count


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_report_prints_every_declared_metric(trace, kind, capsys):
    wl = WORKLOADS["census"](3, "smoke", ROOT)
    args = argparse.Namespace(workload="census", seed=3, seconds=0, trace=trace)
    assert run.report(wl, args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "census",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
