"""The benchmark's seed-0 pins, replayed through its own workload module.

``perfbench/workloads.py`` drives the simulator through the names it calls
(``named_program``, ``run_monitoring_protocol``, ``optimize_schedule``,
``cli.main``, ...) and checks every op of seed 0 against
``perfbench/expected.json``. Running those pinned ops here makes a change
that breaks that API surface, or moves a pinned output, fail in the test
suite. The tests only read ``perfbench/``; ops write to ``tmp_path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_perfbench("workloads")


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


# Tracer targets the package no longer holds. The tracer records each as
# absent and its layer's metrics read 0 wherever no other target feeds them,
# so a change that deletes or renames a traced function must add it here and
# say which per-layer metric it zeroes.
ABSENT_TRACER_TARGETS = {
    "mechmbqc.dynamics.suggest_dt",
    "mechmbqc.mbqc.run_projective_mbqc",
    "mechmbqc.mbqc.run_projective_cz",
    "mechmbqc.mbqc.linear_cluster_with_input",
    "mechmbqc.mbqc.dual_rail_with_inputs",
    "mechmbqc.states.partial_trace",
    "mechmbqc.states.homodyne_project",
    # The QND step's coefficients are built by optomech.qnd_coefficients, so
    # optomech.coeffs.calls and .s read 0.
    "mechmbqc.optomech.build_qnd_step",
    "mechmbqc.dynamics.build_coefficients",
}


def test_tracer_blind_spots_are_the_documented_ones():
    tracer = load_perfbench("tracer")
    absent = {f"{module}.{attr}" for module, attr, _, _ in tracer.TARGETS
              if not callable(getattr(importlib.import_module(module), attr, None))}
    assert absent == ABSENT_TRACER_TARGETS
