"""Every scripts/reproduce.py job, run in-process, matches out/ byte for byte,
and --check compares without writing."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "out"

_spec = importlib.util.spec_from_file_location("reproduce", REPO / "scripts" / "reproduce.py")
reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce)


@pytest.mark.parametrize("name, argv", reproduce.JOBS, ids=[name for name, _ in reproduce.JOBS])
def test_job_matches_out(tmp_path, name, argv):
    assert reproduce.run_job(tmp_path, name, argv) == (OUT / name).read_bytes()
    for svg in [a for a in argv if a.endswith(".svg")]:
        assert (tmp_path / svg).read_bytes() == (OUT / svg).read_bytes()


def test_check_reports_a_stale_figure_and_writes_nothing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(OUT, out)
    figure = out / "phi2_beta.svg"
    data = bytearray(figure.read_bytes())
    data[len(data) // 2] ^= 1
    figure.write_bytes(bytes(data))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(sys, "argv", ["reproduce.py", "--check", "--out", str(out)])
    assert reproduce.main() == 1
    assert "stale outputs: phi2_beta.svg" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
