"""Write ``expected.json``: pinned outputs of the default seed's first ops.

Usage (from the repository root): python3 perfbench/pin_expected.py

Run it only at a commit whose outputs are the reference, and never in a
change that claims a gain. ``run.py`` compares the default seed's first ops
against these values: fidelities within 1e-10 absolute and optimizer step
durations exactly.
"""

import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

PINNED_OPS = {"protocol": 16, "optimize": 8, "sweep": 4}


def main():
    api = workloads.Api()
    pins = {}
    for name, count in PINNED_OPS.items():
        work_dir = HERE / "out" / f"pin-{name}"
        work_dir.mkdir(parents=True, exist_ok=True)
        workload = workloads.WORKLOADS[name](api, workloads.DEFAULT_SEED,
                                             work_dir, [])
        pins[name] = []
        for index in range(count):
            op = workload.op(index)
            result = workload.check(index, op, workload.run(op))
            pins[name].append({"input": op[0], **result.detail})
            print(name, index, op[0], result.detail, flush=True)
        workload.cleanup()
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
