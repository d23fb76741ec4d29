"""The CI workflow parses, and names only files and workloads that exist."""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a relative path with at least one slash, glob characters allowed
_PATH = re.compile(r"(?<![\w$./-])((?:[\w.-]+/)+[\w.*-]+)")


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


def test_workflow_has_both_jobs(workflow):
    assert isinstance(workflow, dict)
    assert isinstance(workflow.get("jobs"), dict)
    assert {"tests", "benchmark-gates"} <= set(workflow["jobs"])


def test_run_steps_name_existing_paths(workflow):
    named = set()
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            named.update(_PATH.findall(step.get("run", "")))
    assert "scripts/reproduce.py" in named and "perfbench/run.py" in named
    missing = sorted(p for p in named if not any(ROOT.glob(p)))
    assert not missing


def test_benchmark_matrix_covers_every_workload(workflow):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    matrix = workflow["jobs"]["benchmark-gates"]["strategy"]["matrix"]["workload"]
    assert matrix == [w["name"] for w in declared]
