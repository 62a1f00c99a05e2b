"""The benchmark's workloads pass their own output checks."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the Op dataclass resolves its annotations through sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["desk", "small_m", "theory", "wide"])
def test_workload_outputs_pass_their_checks(name, workloads, tmp_path):
    # an output the benchmark would count as incorrect fails here first
    for op in workloads.build(name, 1, tmp_path):
        op.check(op.call())
