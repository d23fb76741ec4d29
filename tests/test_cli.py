import contextlib
import hashlib
import io
import json
import operator
import os
import re
import resource
import string
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedgedyn import TightMap, holder_bound, parse, semiconj
from wedgedyn.cli import main
from wedgedyn.dsl import MapSpec

from oracles import format_map, kappa

MAPS = Path(__file__).resolve().parent.parent / "maps"
SRC = Path(__file__).resolve().parent.parent / "src"

RAT = re.compile(r"^-?\d+(/\d+)?$")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    lines = [l for l in text.strip().splitlines() if l]
    return [l.split(",") for l in lines]


def test_map_files_parse_and_match_builtins():
    texts = {p.stem: p.read_text() for p in MAPS.glob("*.map")}
    assert set(texts) == {"phi1", "phi2", "phi3"}
    rules = {name: parse(t)[0].rules for name, t in texts.items()}
    assert rules["phi1"] == ("aabAB", "BAbba")
    assert rules["phi2"] == ("aaab", "bbba")
    assert rules["phi3"] == ("aaabaaa", "bbbabbb")


def test_analyze_json(capsys):
    code, out = run(capsys, "analyze", str(MAPS / "phi2.map"))
    assert code == 0
    data = json.loads(out)
    assert data["abelianization"] == [[3, 1], [1, 3]]
    evs = [(ev["re"], ev["im"]) for ev in data["eigenvalues"]]
    assert evs == [("2", "0"), ("4", "0")]
    assert data["is_expanding"] is True
    assert data["c"] == "3/4"
    assert data["delta"] == "3/4"
    assert data["lam"] == "2"
    assert data["holder_bound"] == "1/2"


def test_analyze_sup_norm(capsys):
    code, out = run(capsys, "analyze", str(MAPS / "phi3.map"), "--norm", "sup")
    assert code == 0
    data = json.loads(out)
    assert data["norm"] == "sup"
    evs = [(ev["re"], ev["im"]) for ev in data["eigenvalues"]]
    assert evs == [("5", "0"), ("7", "0")]


def test_analyze_nonexpanding(capsys):
    code, out = run(capsys, "analyze", str(MAPS / "phi1.map"))
    assert code == 0
    data = json.loads(out)
    assert data["is_expanding"] is False
    assert "delta" not in data


def test_bf_csv(capsys):
    code, out = run(capsys, "bf", str(MAPS / "phi2.map"), "--k", "3",
                    "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["k", "invariant_factors", "order"]
    assert rows[1] == ["1", "3", "3"]
    assert rows[2] == ["2", "3x15", "45"]
    assert rows[3] == ["3", "7x63", "441"]


def test_bf_matrix_override(capsys):
    code, out = run(capsys, "bf", str(MAPS / "phi2.map"), "--matrix",
                    "[[2,1],[1,1]]", "--k", "5", "--format", "csv")
    assert code == 0
    rows = csv_rows(out)
    factors = [r[1] for r in rows[1:]]
    assert factors == ["", "5", "4x4", "3x15", "11x11"]


@pytest.mark.parametrize("literal", ["[[2.5,0],[0,3]]", "5", "{1:2}", "[]",
                                     "[[1,2],[3]]", "[[True,0],[0,3]]"])
def test_bf_matrix_rejects_non_integer_rows(capsys, literal):
    code = main(["bf", str(MAPS / "phi2.map"), "--matrix", literal])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("ValueError: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("literal", ["notjson", "[[10**400,0],[0,1]]", "[[1,2",
                                     "[[" + "-" * 5000 + "1]]", "[[" + "-" * 100000 + "1]]",
                                     "[" * 100000 + "]" * 100000, "[[" + "7" * 5000 + "]]",
                                     "((2,1),(1,1))"])
def test_bf_matrix_parse_errors_are_one_line(capsys, literal):
    """Text that does not parse gets the --matrix message, without the
    parser's internals (an object address) and without a traceback, however
    deep it nests or however long its numbers run."""
    code = main(["bf", str(MAPS / "phi2.map"), "--matrix", literal])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ValueError: --matrix needs") and err.count("\n") == 1
    assert "0x" not in err and "Traceback" not in err


def test_bf_json(capsys):
    code, out = run(capsys, "bf", str(MAPS / "phi2.map"), "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [[3, 1], [1, 3]]
    g1, g2 = data["groups"]
    assert g1["k"] == 1 and g1["order"] == "3" and g1["invariant_factors"] == ["3"]
    assert g2["k"] == 2 and g2["order"] == "45"
    assert g2["invariant_factors"] == ["3", "15"]


def test_bf_root_of_unity_exit(capsys):
    code = main(["bf", str(MAPS / "phi1.map")])
    assert code == 1
    err = capsys.readouterr().err
    assert "RootOfUnitySpectrum" in err


@pytest.mark.parametrize("command", ["bf", "fix", "torus"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_nonpositive_k_exit(capsys, command, k):
    code = main([command, str(MAPS / "phi2.map"), "--k", k])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "k must be >= 1" in captured.err


def test_fix_csv(capsys):
    code, out = run(capsys, "fix", str(MAPS / "phi2.map"))
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["edge", "t", "period", "least_period",
                       "delta_0", "delta_1", "disp_0", "disp_1",
                       "alpha_0", "alpha_1"]
    body = rows[1:]
    assert len(body) == 5
    points = {(r[0], r[1]) for r in body}
    assert points == {("0", "0"), ("0", "1/3"), ("0", "2/3"),
                      ("1", "1/3"), ("1", "2/3")}
    by_point = {(r[0], r[1]): r for r in body}
    assert by_point[("0", "1/3")][4:] == ["1", "0", "0", "2", "2/3", "2/3"]
    assert by_point[("1", "2/3")][4:] == ["0", "2", "0", "1", "1/3", "1/3"]
    for r in body:
        for cell in r:
            assert cell == "" or RAT.match(cell), cell


def test_torus_csv(capsys):
    code, out = run(capsys, "torus", str(MAPS / "phi2.map"))
    assert code == 0
    rows = csv_rows(out)
    pts = {tuple(r[:2]) for r in rows[1:]}
    assert pts == {("0", "0"), ("1/3", "1/3"), ("2/3", "2/3")}


def test_rotset_csv_and_svg(capsys, tmp_path):
    svg = tmp_path / "rotset.svg"
    code, out = run(capsys, "rotset", str(MAPS / "phi1.map"), "--svg", str(svg))
    assert code == 0
    rows = csv_rows(out)
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("loop") == 10
    assert kinds.count("hull") == 5
    assert kinds.count("fixed") == 6
    assert kinds.count("period2") == 4
    content = svg.read_text()
    assert "<svg" in content
    assert 'class="hull"' in content


def test_rotset_budget_exit(capsys):
    code = main(["rotset", str(MAPS / "phi1.map"), "--budget", "2"])
    assert code == 3


def test_rotset_identity_rank20(capsys, tmp_path):
    """The loop walk follows existing arcs only: the rank-20 identity map has
    20 one-letter loops and no other vertex order to try."""
    mapfile = tmp_path / "id20.map"
    letters = string.ascii_lowercase[:20]
    mapfile.write_text("map id20 rank 20 {\n" + "".join(f"  {c} -> {c} ;\n" for c in letters) + "}\n")
    start = time.perf_counter()
    code, out = run(capsys, "rotset", str(mapfile))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert [r[:2] for r in csv_rows(out)[1:] if r[0] == "loop"] == [["loop", "1"]] * 20
    assert elapsed < 1


def test_name_selects_a_later_map(capsys, tmp_path):
    mapfile = tmp_path / "two.map"
    mapfile.write_text((MAPS / "phi1.map").read_text() + (MAPS / "phi2.map").read_text())
    code, out = run(capsys, "analyze", str(mapfile), "--name", "phi2")
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "phi2"
    assert data["abelianization"] == [[3, 1], [1, 3]]


@pytest.mark.parametrize("mapfile, k, digest", [
    ("phi2.map", 5, "7ff91e14cd1b6bcb24bcfc66e292a4454c1f73ee35fc28d03a8ebd5e05e31074"),
    ("phi3.map", 3, "fee9e4643bc0f7424f4004ae00488daf2618018967ac38fc0d2003988c5fa6a1"),
])
def test_fix_output_is_pinned(capsys, mapfile, k, digest):
    """SHA-256 of the whole fix table (points, translations, displacements
    and alpha images): a faster census must not move a byte of it."""
    code, out = run(capsys, "fix", str(MAPS / mapfile), "--k", str(k))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_fix_budget_exit(capsys):
    # 2 * 4^j charts at depth j: refused from the count, before any walking
    code = main(["fix", str(MAPS / "phi2.map"), "--k", "1200"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("wedgedyn.errors.BudgetExceeded: more than 200000 "
                            "charts in the slot walk to depth 1200\n")


def test_torus_budget_exit(capsys):
    code = main(["torus", str(MAPS / "phi2.map"), "--k", "12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("wedgedyn.errors.BudgetExceeded: 68702695425 torus fixed points "
                            "exceed budget 200000\n")


def test_beta_budget_exit(capsys, tmp_path):
    """2 * (4^12 + 1) rows at level 12: refused before psi^12 is built, and
    an SVG request writes nothing."""
    svg = tmp_path / "beta.svg"
    start = time.perf_counter()
    code = main(["beta", str(MAPS / "phi2.map"), "--k", "12", "--svg", str(svg)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("wedgedyn.errors.BudgetExceeded: more than 200000 "
                            "beta rows at level 12\n")
    assert not svg.exists()
    assert elapsed < 0.5


def test_fix_deep_non_expanding_exit(capsys, tmp_path):
    """1200 slots deep the census still ends in its documented error, not a
    RecursionError traceback."""
    mapfile = tmp_path / "shear.map"
    mapfile.write_text("map shear rank 2 { a -> ab ; b -> b ; }\n")
    # about 722,000 charts down to depth 1200, over the default budget; b's
    # one-letter slot cycle is refused before any of them is walked
    start = time.perf_counter()
    code = main(["fix", str(mapfile), "--k", "1200", "--budget", "1000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("wedgedyn.errors.NotExpanding: slot cycle composes to the "
                            "identity; fixed points not isolated\n")
    assert elapsed < 0.5


def test_fix_thin_deep_walk_budget_exit(capsys, tmp_path):
    """Only 1,202 itineraries reach depth 1200, but the walk visits about
    722,000 charts on the way there: the default budget counts those and
    refuses at once."""
    mapfile = tmp_path / "shear.map"
    mapfile.write_text("map shear rank 2 { a -> ab ; b -> b ; }\n")
    start = time.perf_counter()
    code = main(["fix", str(mapfile), "--k", "1200"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("wedgedyn.errors.BudgetExceeded: more than 200000 "
                            "charts in the slot walk to depth 1200\n")
    assert elapsed < 0.5


def test_rotset_rank3_svg_exit(capsys, tmp_path):
    # the figure is refused before any CSV row is written or the file opened
    mapfile = tmp_path / "rank3.map"
    mapfile.write_text("map r3 rank 3 { a -> baB ; b -> cbC ; c -> acA ; }\n")
    svg = tmp_path / "rotset.svg"
    code = main(["rotset", str(mapfile), "--svg", str(svg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "ValueError: rotation-set figure is drawn for rank 2 only\n"
    assert not svg.exists()


def test_beta_csv_and_svg(capsys, tmp_path):
    svg = tmp_path / "beta.svg"
    code, out = run(capsys, "beta", str(MAPS / "phi2.map"), "--k", "2",
                    "--svg", str(svg))
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["edge", "i", "t", "beta_0", "beta_1"]
    table = {(r[0], r[2]): (r[3], r[4]) for r in rows[1:]}
    assert table[("0", "1/4")] == ("3/8", "-1/8")
    assert table[("0", "5/16")] == ("17/32", "-7/32")
    for r in rows[1:]:
        assert RAT.match(r[2]) and RAT.match(r[3]) and RAT.match(r[4])
    assert "<svg" in svg.read_text()


@pytest.mark.parametrize("with_svg", [True, False], ids=["svg", "no-svg"])
def test_beta_negative_window_exit(capsys, tmp_path, with_svg):
    svg = tmp_path / "beta.svg"
    extra = ["--svg", str(svg)] if with_svg else []
    code = main(["beta", str(MAPS / "phi2.map"), "--k", "2", "--window", "-1", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("ValueError: ")
    assert captured.err.count("\n") == 1
    assert not svg.exists()


def test_beta_negative_k_exit(capsys):
    code = main(["beta", str(MAPS / "phi2.map"), "--k", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "ValueError: k must be >= 0, got -1\n"


def test_beta_svg_builds_one_table(capsys, tmp_path, monkeypatch):
    # rebind beta_breakpoints under every module alias, as a tracer would
    original = semiconj.beta_breakpoints
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "wedgedyn" or name.startswith("wedgedyn."):
            for alias, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, alias, counting)
    code = main(["beta", str(MAPS / "phi2.map"), "--k", "2",
                 "--svg", str(tmp_path / "beta.svg")])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1


def test_shadow_json(capsys):
    code, out = run(capsys, "shadow", str(MAPS / "phi2.map"))
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "NOT_INJECTIVE"
    assert data["depth"] == 1
    assert len(data["witness"]) == 2

    code, out = run(capsys, "shadow", str(MAPS / "phi3.map"))
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "CERTIFIED_INJECTIVE"
    assert data["witness"] is None


def test_shadow_unknown_exit(capsys):
    code, out = run(capsys, "shadow", str(MAPS / "phi3.map"), "--depth", "0")
    assert code == 2
    assert json.loads(out)["status"] == "UNKNOWN"


@pytest.mark.parametrize("max_cells", ["0", "1"])
def test_shadow_budget_exit(capsys, max_cells):
    # the depth-0 box and every depth meet the budget before any witness
    # search, so phi2's depth-1 witness is never reached
    code = main(["shadow", str(MAPS / "phi2.map"), "--max-cells", max_cells])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("wedgedyn.errors.BudgetExceeded: ")


def test_shadow_cell_budget_exit(capsys):
    """phi3's depth-0 box fits 3 * L^2 segment pairs, but more than 3 cells
    pass the 2*delta gate: the per-depth cell cap refuses."""
    code = main(["shadow", str(MAPS / "phi3.map"), "--max-cells", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "wedgedyn.errors.BudgetExceeded: segment-pair cells exceeded 3\n"


def test_shadow_box_budget_exit(tmp_path):
    """The depth-0 box is held to the budget before it is built. This map's
    box holds 297,685,449 segment pairs and the 2*delta gate keeps so few
    that the cell count alone would not stop it; the child runs under a
    timeout and a 512 MiB address-space cap, so a relapse fails the test
    instead of exhausting the machine."""
    mapfile = tmp_path / "wide.map"
    mapfile.write_text("map wide rank 3 { a -> aaa ; b -> cBBCC ; c -> caca ; }\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "wedgedyn", "shadow", str(mapfile)],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=cap_memory)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("wedgedyn.errors.BudgetExceeded: depth-0 box of 297685449 "
                           "segment pairs exceeds max_cells * L^2 = 2500000\n")


# expanding, but with no integer eigenbasis and ||A^-1||_inf >= 1
TWISTED = "map twisted rank 3 { a -> b ; b -> c ; c -> aabca ; }\n"


@pytest.mark.parametrize("norm, err", [
    ([], "wedgedyn.errors.AdaptedNormUnavailable: no exact adapted norm for this matrix\n"),
    (["--norm", "sup"],
     "wedgedyn.errors.NotExpanding: matrix does not contract the sup norm backwards\n"),
])
def test_norm_refusal_exit(capsys, tmp_path, norm, err):
    """shadow needs the norm, so it refuses a map without one."""
    mapfile = tmp_path / "twisted.map"
    mapfile.write_text(TWISTED)
    code = main(["shadow", str(mapfile), *norm])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == err


def _analyze_without_norm(capsys, mapfile, *norm):
    """analyze on an expanding map without the norm asked for: exit 0, the
    spectrum and the Holder bound, and the sigma block's reason in place
    of its values."""
    code = main(["analyze", str(mapfile), *norm])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["is_expanding"] is True
    assert data["norm"] is None
    assert not {"c", "c_sup", "lam", "delta"} & set(data)
    m = TightMap(parse(mapfile.read_text())[0].to_endomorphism())
    assert data["holder_bound"] == str(holder_bound(m))
    assert data["lambda_lower"] == str(m.spectral.lambda_lower)
    return data["sigma_unavailable"]


@pytest.mark.parametrize("norm, reason", [
    ([], "AdaptedNormUnavailable: no exact adapted norm for this matrix"),
    (["--norm", "sup"], "NotExpanding: matrix does not contract the sup norm backwards"),
])
def test_analyze_degrades_without_norm(capsys, tmp_path, norm, reason):
    mapfile = tmp_path / "twisted.map"
    mapfile.write_text(TWISTED)
    assert _analyze_without_norm(capsys, mapfile, *norm) == reason


# expanding and uniformly expanding (M = 3), with no certified norm yet
def test_beta_on_mixed_speeds(capsys, tmp_path):
    """Speeds 4 and 3 give M = 12: the t column reads the quarters on a and
    the thirds on b, and the figure renders."""
    mapfile, svg = tmp_path / "mixed.map", tmp_path / "beta.svg"
    mapfile.write_text("map mixed rank 2 { a -> aaab ; b -> bba ; }\n")
    code, out = run(capsys, "beta", str(mapfile), "--k", "1", "--svg", str(svg))
    assert code == 0
    rows = csv_rows(out)[1:]
    assert [(r[0], r[2]) for r in rows] == [
        ("0", "0"), ("0", "1/4"), ("0", "1/2"), ("0", "3/4"), ("0", "1"),
        ("1", "0"), ("1", "1/3"), ("1", "2/3"), ("1", "1")]
    assert rows[1][3:] == ["2/5", "-1/5"] and rows[-1][3:] == ["0", "1"]
    assert svg.read_text().count("<polyline") > 2


NORMLESS = "map normless rank 3 { a -> aCb ; b -> bac ; c -> caa ; }\n"


def test_beta_needs_no_norm(capsys, tmp_path):
    """The beta table needs no norm, so beta runs on a map that has none,
    and analyze reports the map without its sigma block. Each row is the
    prefix walk over the reduced image word, summed with kappa."""
    mapfile = tmp_path / "normless.map"
    mapfile.write_text(NORMLESS)
    code, out = run(capsys, "beta", str(mapfile), "--k", "1")
    assert code == 0
    m = TightMap(parse(NORMLESS)[0].to_endomorphism())
    want = []
    for e, word in enumerate(m.endo.power(1).images):
        acc = (Fraction(0),) * m.rank
        want.append([str(e), "0", "0", *map(str, acc)])
        for i, letter in enumerate(word, 1):
            acc = tuple(map(operator.add, acc, kappa(m, letter, 1)))
            want.append([str(e), str(i), str(Fraction(i, 3)), *map(str, acc)])
    assert len(want) == 12
    assert csv_rows(out)[1:] == want
    assert _analyze_without_norm(capsys, mapfile) == (
        "AdaptedNormUnavailable: no exact adapted norm for this matrix")


def test_non_ascii_map_exit(capsys, tmp_path):
    mapfile = tmp_path / "dotted.map"
    mapfile.write_text("map m rank 2 {\n  a -> a\u0130b ;\n  b -> b ;\n}\n", encoding="utf-8")
    code = main(["analyze", str(mapfile)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "wedgedyn.errors.ParseError: 2:9: unexpected character '\u0130'\n"


@pytest.mark.parametrize("argv", [
    ("shadow", "phi2.map", "--depth", "-1"),
    ("shadow", "phi3.map", "--max-cells", "-5"),
    ("rotset", "phi1.map", "--budget", "-1"),
    ("fix", "phi2.map", "--budget", "-1"),
    ("torus", "phi2.map", "--budget", "-1"),
    ("beta", "phi2.map", "--budget", "-1"),
])
def test_negative_budget_exit(capsys, argv):
    command, mapfile, *rest = argv
    code = main([command, str(MAPS / mapfile), *rest])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("ValueError: ")
    assert captured.err.count("\n") == 1


def test_comment_only_map_exit(capsys, tmp_path):
    mapfile = tmp_path / "empty.map"
    mapfile.write_text("# a comment and no map\n", encoding="utf-8")
    code = main(["analyze", str(mapfile)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "wedgedyn.errors.ParseError: 1:1: no map definitions in file\n"


def test_missing_file_exit(capsys):
    code = main(["analyze", "no-such-file.map"])
    assert code == 1


def test_bad_name_exit(capsys):
    code = main(["analyze", str(MAPS / "phi2.map"), "--name", "nope"])
    assert code == 1


@pytest.mark.parametrize("first, second", [
    (["shadow", "--norm", "sup"], ["shadow"]),
    (["bf", "--format", "csv"], ["bf"]),
])
def test_successive_calls_match_separate_calls(capsys, first, second):
    """main shares one parser between calls: no option of one call may leak
    into the next."""
    def call(argv):
        code = main([argv[0], str(MAPS / "phi2.map"), *argv[1:]])
        return code, capsys.readouterr()

    alone = [call(second), call(first)]
    in_turn = [call(first), call(second)]
    assert in_turn == alone[::-1]
    assert alone[0] != alone[1]


def test_deterministic_output(capsys, tmp_path):
    _, out1 = run(capsys, "analyze", str(MAPS / "phi3.map"))
    _, out2 = run(capsys, "analyze", str(MAPS / "phi3.map"))
    assert out1 == out2
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "beta", str(MAPS / "phi2.map"), "--k", "3", "--svg", str(svg1))
    run(capsys, "beta", str(MAPS / "phi2.map"), "--k", "3", "--svg", str(svg2))
    assert svg1.read_bytes() == svg2.read_bytes()


@st.composite
def small_maps(draw):
    """Rank 2-3 maps whose image words have 1-5 letters, reduced or not."""
    rank = draw(st.integers(min_value=2, max_value=3))
    alphabet = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    rules = tuple(draw(st.text(alphabet=alphabet, min_size=1, max_size=5))
                  for _ in range(rank))
    return MapSpec(name="m", rank=rank, rules=rules)


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(small_maps(), st.integers(0, 2), st.integers(0, 2000), st.integers(0, 200),
       st.integers(0, 2))
def test_every_subcommand_exits_with_a_documented_code(spec, k, budget, cells, depth):
    """Every subcommand on any small map, with small levels and budgets,
    exits 0, 1, 2 or 3 (or argparse's 2) and never raises; a refusal is one
    line on stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        mapfile, svg = str(Path(tmp) / "m.map"), str(Path(tmp) / "f.svg")
        Path(mapfile).write_text(format_map(spec), encoding="utf-8")
        k, budget, cells, depth = map(str, (k, budget, cells, depth))
        for command, *options in (
                ["analyze"], ["analyze", "--norm", "sup"],
                ["bf", "--k", k], ["bf", "--k", k, "--format", "csv"],
                ["fix", "--k", k, "--budget", budget],
                ["torus", "--k", k, "--budget", budget],
                ["rotset", "--budget", budget, "--svg", svg],
                ["beta", "--k", k, "--budget", budget, "--svg", svg],
                ["shadow", "--depth", depth, "--max-cells", cells],
                ["shadow", "--norm", "sup", "--depth", depth, "--max-cells", cells]):
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, mapfile, *options])
            except SystemExit as exc:
                assert exc.code == 2, (command, options)
                continue
            assert code in (0, 1, 2, 3), (command, options)
            if code in (1, 3):
                assert err.getvalue().count("\n") == 1, (command, options, err.getvalue())
