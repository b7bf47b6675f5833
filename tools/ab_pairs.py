"""Interleaved A/B pairs of the benchmark in two checkouts.

Usage (from anywhere):

    python3 tools/ab_pairs.py --base ../parent --change . \
        --workload protocol --pairs 10 --seed 0 --seconds 8

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit in a ``git worktree`` and the working tree. Each
pair runs ``perfbench/run.py`` once in each checkout, one after the other,
and alternates which side runs first, so a drift of the host's speed falls
on both sides alike. Only the last line of each run's standard output, its
JSON result, is read; nothing is written.

For every end-to-end metric the report gives each side's median, the base's
quartiles and interquartile range, the change of the medians, and in how
many pairs the change was better. A gain counts as shown when the change
wins at least 9 of 10 pairs and its median moves by more than the base's
interquartile range. Metric directions come from ``BENCHMARK.json`` in the
change's checkout. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its JSON result line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=max(600.0, 20.0 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"ab_pairs: {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def directions(checkout: Path) -> dict:
    """``{metric: "higher" | "lower"}`` of the end-to-end metrics."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(runs: dict, better: dict) -> list:
    """One text line per metric, and a verdict per metric."""
    lines = []
    n_pairs = len(runs["base"])
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        q1, q3 = quartiles(base)
        rel = (c_med - b_med) / b_med if b_med else float("nan")
        shown = wins >= WIN_SHARE * n_pairs and sign * (c_med - b_med) > q3 - q1
        lines.append(
            f"{name:12s} base {b_med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.3g}]"
            f"  change {c_med:.6g} ({rel:+.2%})  better in {wins}/{n_pairs}"
            f"  ({direction} is better){'  GAIN SHOWN' if shown else ''}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {"base": [], "change": []}
    for k in range(args.pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            print(f"pair {k + 1} {side:6s} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                  flush=True)
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs, base first in odd pairs")
    for line in report(runs, directions(sides["change"])):
        print(line)
    if not all(r["correct"] for side in runs.values() for r in side):
        sys.exit("ab_pairs: a run reported correct: false")


if __name__ == "__main__":
    main()
