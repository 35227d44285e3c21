"""The benchmark drives adiasweep through perfbench/workloads.py; one pass of
each workload must run and check clean, so a renamed entry point or records
that drift past the benchmark's reference gate fail here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep-2level", "sweep-3level", "check-oracles", "warm-report"])
def test_one_pass_runs_clean(workloads, tmp_path, name):
    workload = workloads.make(name, seed=1)
    workload.setup(str(tmp_path / name))
    result = workload.run_pass()
    assert result.attempted > 0
    assert result.failed == 0
    assert result.problems == []
