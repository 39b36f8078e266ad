"""The benchmark's workloads still run: one operation of each, read from
perfbench/workloads.py, through its own build, run and check.  A refactor
that removes a name the benchmark calls fails here, not in the benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [workload["name"] for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", WORKLOADS)
def test_one_operation_passes_its_check(workloads, name, tmp_path):
    config = workloads.build(name, 1, str(tmp_path))
    outcome = workloads.check(config, workloads.run(config))
    assert outcome.problems == ()
