"""The benchmark's seed-0 pins, replayed through its own workload module.

``perfbench/workloads.py`` drives the simulator through the names it calls
(``named_program``, ``run_monitoring_protocol``, ``optimize_schedule``,
``cli.main``, ...) and checks every op of seed 0 against
``perfbench/expected.json``. Running those pinned ops here makes a change
that breaks that API surface, or moves a pinned output, fail in the test
suite. The test only reads ``perfbench/``; ops write to ``tmp_path``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["protocol", "optimize", "sweep"])
def test_seed0_ops_match_their_pins(name, tmp_path):
    workload = workloads.setup(name, workloads.DEFAULT_SEED, tmp_path)
    try:
        assert workload.expected, f"no pins for workload '{name}'"
        for index in range(len(workload.expected)):
            op = workload.op(index)
            workload.check(index, op, workload.run(op))
    finally:
        workload.cleanup()
