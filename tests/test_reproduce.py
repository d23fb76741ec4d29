"""Every scripts/reproduce.py job, run in-process, matches out/ byte for byte."""

import importlib.util
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
