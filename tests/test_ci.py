"""The CI workflow parses, and names only files and workloads that exist;
the benchmark's tracer names only layers that exist."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# a relative path with at least one slash, glob characters allowed
_PATH = re.compile(r"(?<![\w$./-])((?:[\w.-]+/)+[\w.*-]+)")


@pytest.fixture(scope="module")
def workflow():
    yaml = pytest.importorskip("yaml")
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


def test_tests_matrix_runs_every_supported_python(workflow):
    """The tests job runs every minor version from the requires-python
    floor of pyproject.toml up to its newest entry, with no gap:
    intmat.fraction writes Fraction's private slots, and
    tests/test_intmat.py checks it on each version."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', pyproject, re.M).group(1))
    versions = workflow["jobs"]["tests"]["strategy"]["matrix"]["python-version"]
    # quoted in the YAML: an unquoted 3.10 would read as the float 3.1
    assert all(isinstance(v, str) and v.startswith("3.") for v in versions)
    minors = [int(v[2:]) for v in versions]
    assert minors == list(range(floor, minors[-1] + 1))


def test_benchmark_matrix_covers_every_workload(workflow):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    matrix = workflow["jobs"]["benchmark-gates"]["strategy"]["matrix"]["workload"]
    assert matrix == [w["name"] for w in declared]


def test_traced_targets_resolve():
    """Every (module, qualified name) in perfbench/tracer.py's TARGETS is a
    function of a wedgedyn module or a method that a wedgedyn class itself
    defines, which is what Tracer.install rebinds. The tracer is loaded by
    path and only read; a renamed layer fails here, not only in a traced
    benchmark run."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) == len(set(tracer.TARGETS))
    missing = []
    for mod_name, qual in tracer.TARGETS:
        owner = importlib.import_module(f"wedgedyn.{mod_name}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append(f"{mod_name}.{qual}")
    assert not missing


def test_startup_step_writes_outside_the_checkout(workflow):
    """The import-time step logs to the runner's temp directory and writes
    no .pyc, ahead of the step that checks the checkout is clean."""
    steps = workflow["jobs"]["tests"]["steps"]
    names = [s.get("name") for s in steps]
    run = steps[names.index("Start-up import time")]["run"]
    assert 'python -X importtime -c "import wedgedyn.cli" 2> "$RUNNER_TEMP/' in run
    assert "PYTHONDONTWRITEBYTECODE=1" in run and "$GITHUB_STEP_SUMMARY" in run
    assert names.index("Start-up import time") < names.index("Clean checkout")
