"""Interleaved A/B pairs of the benchmark in two checkouts.

Usage (from anywhere):

    python3 tools/ab_pairs.py --base ../parent --change . \
        --workload protocol --pairs 10 --seed 0 --seconds 8

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit in a ``git worktree`` and the working tree. Each
pair runs ``perfbench/run.py`` once in each checkout, one after the other,
and alternates which side runs first, so a drift of the host's speed falls
on both sides alike. Only the last line of each run's standard output, its
JSON result, and its ``# info:`` line are read; nothing is written.

For every end-to-end metric the report gives each side's median, the base's
quartiles and interquartile range, the change of the medians, and in how
many pairs the change was better. A gain counts as shown when the change
wins at least 9 of 10 pairs and its median moves by more than the base's
interquartile range. Metric directions come from ``BENCHMARK.json`` in the
change's checkout.

The benchmark's metrics are scaled by a host-speed probe that runs between
ops. Where a run's ``# info:`` line also gives a metric unscaled (raw wall
time: ``ops_per_s``, ``op_p50_s``, ``op_tail_s`` and ``setup_s``), the
report adds the medians of those figures on a second line, so a gain can be
checked without the probe. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


INFO_PREFIX = "# info: "


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its JSON result line, parsed, with
    the unscaled metrics of its ``# info:`` line under ``"unscaled"`` (empty
    if the line gives none)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=max(600.0, 20.0 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"ab_pairs: {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    info = [json.loads(line[len(INFO_PREFIX):]) for line in lines
            if line.startswith(INFO_PREFIX)]
    result["unscaled"] = info[-1].get("unscaled", {}) if info else {}
    return result


def directions(checkout: Path) -> dict:
    """``{metric: "higher" | "lower"}`` of the end-to-end metrics."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base: list, change: list, sign: float) -> tuple:
    """Medians, the base's quartiles, the relative change of the medians and
    the pairs the change won, of one metric's figures per pair."""
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    rel = (c_med - b_med) / b_med if b_med else float("nan")
    return b_med, c_med, q1, q3, rel, wins


def report(runs: dict, better: dict) -> list:
    """One text line per metric, and a verdict per metric; a second line
    per metric with its unscaled medians, where every run gives them."""
    lines = []
    n_pairs = len(runs["base"])
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        b_med, c_med, q1, q3, rel, wins = compare(
            [r["metrics"][name]["value"] for r in runs["base"]],
            [r["metrics"][name]["value"] for r in runs["change"]], sign)
        shown = wins >= WIN_SHARE * n_pairs and sign * (c_med - b_med) > q3 - q1
        lines.append(
            f"{name:12s} base {b_med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}, IQR {q3 - q1:.3g}]"
            f"  change {c_med:.6g} ({rel:+.2%})  better in {wins}/{n_pairs}"
            f"  ({direction} is better){'  GAIN SHOWN' if shown else ''}")
        if all(name in r["unscaled"] for side in runs.values() for r in side):
            b_med, c_med, q1, q3, rel, wins = compare(
                [r["unscaled"][name] for r in runs["base"]],
                [r["unscaled"][name] for r in runs["change"]], sign)
            lines.append(
                f"{'  unscaled':12s} base {b_med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}, "
                f"IQR {q3 - q1:.3g}]  change {c_med:.6g} ({rel:+.2%})"
                f"  better in {wins}/{n_pairs}")
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
