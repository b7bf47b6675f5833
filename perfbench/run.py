"""Benchmark of the monitored-MBQC simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol|optimize|sweep \
        --seed N --seconds S --trace 0|1

One client process on one thread runs a closed loop: each op is one public
call, issued after the previous one returns and its output is checked.

``--trace 0`` runs whole blocks of ops for about ``--seconds`` seconds and
reports the end-to-end metrics. ``--trace 1`` runs a fixed number of ops
traced, replays the first of them untraced, and reports per-layer metrics and
the tracing overhead; the fixed count keeps call counts comparable between
commits. The last line of standard output is the JSON result; details go to
``perfbench/out/``.
"""

import os

# One BLAS thread for every run and every set-up probe, fixed before numpy
# is imported: the machine has two cores and one client.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7
# Ops per traced run (whole blocks where a block is short); the first half
# also runs untraced to measure the tracing overhead. Sized so a traced run
# takes about half a minute at the seed commit.
TRACE_OPS = {"protocol": 16, "optimize": 8, "sweep": 3}
# The tail is the highest percentile with this many ops beyond it, but never
# below the median; a run with fewer than twice as many ops reports the
# median and records how many ops lie beyond it.
TAIL_OPS_BEYOND = 10
SUBPROCESS_TIMEOUT = 60


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mechmbqc").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev(),
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_rev():
    """HEAD of the checkout, or None when it is not its own git repository."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if Path(lines[0]).resolve() == ROOT else None


def setup_times(name: str, seed: int) -> tuple:
    """Set-up durations from fresh interpreters, one after another.

    Returns the durations rescaled to the reference host speed, and the
    wall times.
    """
    times, walls = [], []
    for k in range(SETUP_PROBES):
        work = OUT / f"probe-{os.getpid()}-{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(work)],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        wall, scaled = proc.stdout.split()[-2:]
        times.append(float(scaled))
        walls.append(float(wall))
    return times, walls


def run_op(workload, index: int, sampler) -> dict:
    """Issue op ``index``, time the public call, then check its output.

    ``latency_s`` is the op's time rescaled to the reference host speed
    (see ``speed.py``); ``wall_s`` is its raw wall time.
    """
    from workloads import CheckFailed

    op = workload.op(index)
    error = result = None
    sampler.start()
    try:
        raw = workload.run(op)
    except Exception as exc:  # an op that raises counts as failed
        error = "".join(traceback.format_exception_only(exc)).strip()
    finally:
        timing = sampler.stop()
    if error is None:
        try:
            result = workload.check(index, op, raw)
        except CheckFailed as exc:
            error = f"check: {exc}"
    return {"op": index, "input": op[0], "latency_s": timing["scaled_s"],
            "wall_s": timing["wall_s"], "speed": timing["speed"],
            "speed_samples": timing["samples"], "error": error,
            "output": result.detail if result else None,
            "fidelities": result.fidelities if result else None}


def closed_loop(workload, seconds: float, sampler):
    """Run whole blocks of ops back to back; returns records and wall time.

    Another block starts only if, at the mean block time so far, it is
    expected to end within ``seconds``; at least one block runs. Whole
    blocks give every seed the same mix of work.
    """
    records = []
    start = time.perf_counter()
    block = workload.block_size
    while True:
        done = len(records)
        if done and done % block == 0:
            elapsed = time.perf_counter() - start
            if elapsed * (done + block) / done > seconds:
                break
        records.append(run_op(workload, done, sampler))
    return records, time.perf_counter() - start


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta-weighted mean of all order statistics: one op caught in a slow
    spell of a shared machine moves it far less than it moves a single
    order statistic, which matters for a few dozen ops of mixed sizes.
    """
    import numpy
    from scipy.special import betainc

    n = len(values)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    weights = numpy.diff(betainc(a, b, numpy.arange(n + 1) / n))
    return float(weights @ numpy.sort(values))


def tail_latency(latencies):
    """(percentile, latency, ops beyond it) of the reported tail."""
    n = len(latencies)
    q = max(50.0, 100.0 * (n - TAIL_OPS_BEYOND) / n)
    tail = quantile(latencies, q / 100.0)
    return q, tail, sum(1 for x in latencies if x > tail)


def digests(workload, records) -> dict:
    from workloads import fidelity_digest

    first = {}
    for r in records:  # a traced run also replays some ops untraced
        first.setdefault(r["op"], r)
    rows = [first[op]["fidelities"] or () for op in sorted(first)]
    pinned = len(workload.expected)
    return {"all_ops": fidelity_digest(rows),
            "first_ops": (fidelity_digest(rows[:pinned])
                          if pinned and len(rows) >= pinned else None),
            "ops_in_digest": len(rows)}


def timed_run(args, workload):
    from speed import SpeedSampler

    setups, setup_walls = setup_times(args.workload, args.seed)
    records, wall = closed_loop(workload, args.seconds, SpeedSampler("numpy"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r["latency_s"] for r in records]
    busy = sum(latencies)
    q, tail, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(records) / busy if busy > 0 else 0.0, "1/s"),
        "op_p50_s": (quantile(latencies, 0.5), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    walls = [r["wall_s"] for r in records]
    info = {"setup_samples_s": setups, "loop_wall_s": wall,
            "unscaled": {"ops_per_s": len(walls) / sum(walls),
                         "op_p50_s": quantile(walls, 0.5),
                         "op_tail_s": quantile(walls, q / 100.0),
                         "setup_s": statistics.median(setup_walls)},
            "mean_speed": statistics.fmean(r["speed"] for r in records),
            "tail": {"percentile": q, "ops": len(latencies),
                     "ops_beyond": beyond}}
    return records, metrics, info


def traced_run(args, workload):
    from speed import SpeedSampler
    from tracer import LAYER_METRICS, Tracer
    from workloads import OPTIMIZE_RESOLUTION

    # No samples inside traced ops: their time would land in the spans.
    sampler = SpeedSampler("numpy", interval_s=0)
    tracer = Tracer()
    count = TRACE_OPS[args.workload]
    replay = (count + 1) // 2
    traced, plain = [], []
    start = time.perf_counter()
    for index in range(count):
        # The first ops also run untraced, next to their traced run and in
        # alternating order, so slow spells of a shared machine cancel out
        # of the overhead estimate.
        untraced_first = index < replay and index % 2 == 1
        if untraced_first:
            plain.append(run_op(workload, index, sampler))
        tracer.op_id = index
        tracer.install()
        try:
            traced.append(run_op(workload, index, sampler))
        finally:
            tracer.uninstall()
        if index < replay and not untraced_first:
            plain.append(run_op(workload, index, sampler))
    traced_wall = time.perf_counter() - start
    traced_s = sum(r["wall_s"] for r in traced[:replay])
    plain_s = sum(r["wall_s"] for r in plain)

    totals = tracer.layer_totals()

    def layer(name, key):
        return totals.get(name, {}).get(key, 0.0)

    kept = sum(sum(r["output"]["durations"]) / OPTIMIZE_RESOLUTION for r in traced
               if r["output"] and "durations" in r["output"])
    evals = tracer.evals_under("optomech.optimize", "states.fidelity")
    values = {
        "dynamics.rk4_steps": tracer.rk4_steps,
        "states.symplectic_eigenvalues.calls":
            tracer.counts.get("states.symplectic_eigenvalues", 0),
        "optomech.optimize.evals": evals,
        "optomech.optimize.useful_ratio": kept / evals if evals else 0.0,
        "trace.overhead_s": traced_s - plain_s,
    }
    metrics = {}
    for metric, unit in LAYER_METRICS:
        if metric not in values:
            name, _, key = metric.rpartition(".")
            values[metric] = layer(name, key)
        value = values[metric]
        metrics[metric] = (value if unit != "count" else int(round(value)), unit)
    info = {"wall_s": traced_wall, "replayed_ops": replay,
            "replay_traced_s": traced_s, "replay_untraced_s": plain_s,
            "absent": tracer.absent,
            "self_s_ranking": sorted(((v["self_s"], k) for k, v in totals.items()),
                                     reverse=True),
            "layers": totals}
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()))
    return traced + plain, metrics, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(TRACE_OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mechmbqc" / "__init__.py").is_file():
        fail(f"no simulator sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)

    import workloads

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    setup_start = time.perf_counter()
    workload = workloads.setup(args.workload, args.seed, work_dir)
    setup_in_process = time.perf_counter() - setup_start
    import mechmbqc

    if Path(mechmbqc.__file__).resolve().parent != SRC / "mechmbqc":
        fail(f"imported mechmbqc from {mechmbqc.__file__}, not from {SRC}")

    try:
        if args.trace:
            records, metrics, info = traced_run(args, workload)
        else:
            records, metrics, info = timed_run(args, workload)
    finally:
        workload.cleanup()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in records if r["error"])
    info["setup_in_process_s"] = setup_in_process
    report = {
        "environment": environment(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "digest": digests(workload, records),
        "errors": [(r["op"], r["error"]) for r in records if r["error"]][:20],
        "ops": records,
    }
    suffix = "-trace" if args.trace else ""
    out_path = OUT / f"{args.workload}-seed{args.seed}{suffix}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str))

    for key in ("environment", "digest", "errors"):
        print(f"# {key}: {json.dumps(report[key], default=str)}")
    print(f"# info: {json.dumps({k: v for k, v in info.items() if k != 'layers'}, default=str)}")
    print(f"# ops_attempted = {len(records)}; ops_failed = {failed}")
    for name, entry in report["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and len(records) > 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
