"""In-process A/B pairs of fresh benchmark blocks in two checkouts.

Usage (from anywhere):

    python3 tools/block_ab.py --base ../parent --change . \
        --workload sweep --pairs 10 --seed 0 --blocks 5

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit unpacked by ``git archive`` and the working tree.
Each pair runs one fresh subprocess per side, one after the other, and
alternates which side runs first. A subprocess has one BLAS thread and
imports that checkout's own ``src`` and ``perfbench/workloads.py``, which are
only read. It runs the seed's first block of ops of the workload once to warm
up (32 ``protocol`` runs, 12 ``optimize`` runs, one ``sweep``), then times
``--blocks`` blocks of the ops that follow it, each op run once: whole
workload blocks of at least 16 ops (32 ``protocol``, 24 ``optimize`` and 16
``sweep`` ops per timed block). Every timed op is fresh, so it pays the
set-up that a benchmark op pays, such as building a new sweep point's flows,
where a repeated op would find them in the run caches; both sides time the
same ops. Sweep outputs go to a temporary directory. No output is checked:
use ``tools/same_outputs.py`` for that.

Each subprocess reports the median of its timed blocks. The report gives each
side's min and quartiles of those over the pairs, the median per-pair ratio
change / base, and the pairs the change won. It calls the difference
"resolved" only where the gap between the two medians exceeds the base's
interquartile range, the spread between the base's own runs, and
"unresolved" otherwise: a run that shows no gap beyond that spread shows no
change either way, not an unchanged time. Where ``tools/ab_pairs.py``
times whole benchmark runs, this times the simulator alone, without the
benchmark's host-speed probe. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

# Ops per timed block, at least: whole workload blocks are timed.
MIN_TIMED_OPS = 16

# The subprocess: argv is checkout, workload, seed, timed blocks, least ops per
# timed block; it prints the median timed block in seconds.
CHILD = """
import importlib.util, math, statistics, sys, tempfile, time
from pathlib import Path
checkout, name, seed, blocks, least = (Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]),
                                       int(sys.argv[4]), int(sys.argv[5]))
sys.path.insert(0, str(checkout / "src"))
spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
with tempfile.TemporaryDirectory() as tmp:
    workload = workloads.setup(name, seed, Path(tmp))
    warm = workload.block_size
    size = warm * math.ceil(least / warm)
    for index in range(warm):
        workload.run(workload.op(index))
    times = []
    for block in range(blocks):
        ops = [workload.op(warm + block * size + k) for k in range(size)]
        start = time.perf_counter()
        for op in ops:
            workload.run(op)
        times.append(time.perf_counter() - start)
    workload.cleanup()
print(statistics.median(times))
"""


def run_side(checkout: Path, workload: str, seed: int, blocks: int) -> float:
    """The median of ``blocks`` timed blocks of fresh ops in a fresh subprocess."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", CHILD, str(checkout), workload, str(seed), str(blocks),
            str(MIN_TIMED_OPS)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"block_ab: {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def quartiles_of(values: list) -> tuple:
    """``(q1, median, q3)`` of ``values``, by linear interpolation between
    the sorted values; a lone value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--blocks", type=int, default=5)
    args = parser.parse_args()
    if args.pairs < 1 or args.blocks < 1:
        parser.error("--pairs and --blocks must be at least 1")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    times = {"base": [], "change": []}
    for k in range(args.pairs):
        for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
            times[side].append(run_side(sides[side], args.workload, args.seed, args.blocks))
        print(f"pair {k + 1}  base {times['base'][-1]:.4f} s  "
              f"change {times['change'][-1]:.4f} s", flush=True)
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    wins = sum(r < 1.0 for r in ratios)
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs, median of "
          f"{args.blocks} timed blocks of fresh ops per side, base first in odd pairs")
    quartiles = {side: quartiles_of(values) for side, values in times.items()}
    for side, (q1, median, q3) in quartiles.items():
        print(f"{side:6s} min {min(times[side]):.4f} s  quartiles {q1:.4f} / {median:.4f} / "
              f"{q3:.4f} s")
    (b1, base, b3), (_, change, _) = quartiles["base"], quartiles["change"]
    verdict = "resolved" if abs(change - base) > b3 - b1 else "unresolved"
    print(f"change / base: median ratio {statistics.median(ratios):.4f} "
          f"({statistics.median(ratios) - 1.0:+.2%}), change faster in {wins}/{args.pairs}; "
          f"median gap {change - base:+.4f} s against base IQR {b3 - b1:.4f} s: {verdict}")


if __name__ == "__main__":
    main()
