"""Command-line experiment runner.

Subcommands: simulate (one protocol run), sweep (grid of runs over one or two
parameters), optimize (per-step monitoring-time search), oracle
(projective-measurement reference outputs). Simulate and every sweep point
run the optimizer when the config's schedule is optimized. All outputs are
columnar text with '#'-prefixed header metadata including the config hash, so
identical configurations reproduce identical files.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .optomech import (PRESETS, RUN_CACHE_SIZE, optimize_schedule, run_monitoring_batch,
                       run_monitoring_protocol)
from .states import UnphysicalStateError, build_cluster, nullifier_variances

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _write_columns(path: Path, header: dict, columns: dict):
    """Write '# key: value' metadata plus comma-separated columns."""
    lines = [f"# {key}: {value}" for key, value in header.items()]
    names = list(columns)
    lines.append(",".join(names))
    rows = zip(*[columns[name] for name in names])
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _base_header(config: ExperimentConfig, command: str) -> dict:
    return {
        "tool": f"mechmbqc {__version__}",
        "command": command,
        "config_hash": config.digest(),
        # A line break in the gate name would end the metadata line early.
        "gate": " ".join(config.gate.split()),
    }


def _trace_columns(result) -> dict:
    """The fidelity trace of a protocol run, with 1-based step numbers."""
    step_index = np.empty(len(result.times), dtype=int)
    for k, sl in enumerate(result.step_slices):
        step_index[sl] = k + 1
    return {"time_s": result.times, "step": step_index,
            "fidelity": result.fidelities}


def _run(config: ExperimentConfig, overrides: dict = None) -> tuple:
    """One protocol run of ``config``, with parameter ``overrides`` if given:
    the optimizer's for an optimized schedule, else a monitored run of the
    configured one. Returns ``(schedule, result)``."""
    params = config.physical_params(overrides)
    if config.schedule_mode == "optimized":
        return optimize_schedule(
            config.program, params,
            time_resolution=config.time_resolution_us * 1e-6,
            max_step_duration=config.max_step_us * 1e-6,
        )
    result = run_monitoring_protocol(config.program, params, config.schedule(),
                                     samples_per_step=config.samples_per_step)
    return result.schedule, result


def cmd_simulate(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    schedule, result = _run(config)
    header = _base_header(config, "simulate")
    header["schedule_us"] = " ".join(f"{t * 1e6:.6g}" for t in schedule.durations)
    _write_columns(out_dir / "trace.csv", header, _trace_columns(result))
    summary = dict(header)
    summary["final_fidelity"] = f"{result.final_fidelity:.12g}"
    summary["max_fidelity"] = f"{result.max_fidelity:.12g}"
    _write_columns(out_dir / "summary.csv", summary, {
        "final_fidelity": [result.final_fidelity],
        "max_fidelity": [result.max_fidelity],
    })
    print(f"final fidelity {result.final_fidelity:.6f} "
          f"(max {result.max_fidelity:.6f}); wrote {out_dir / 'trace.csv'}")
    return EXIT_OK


# The thread-count entry points of OpenBLAS as the numpy and scipy wheels
# bundle it: numpy's 64-bit-integer build suffixes its symbols.
_OPENBLAS_THREADS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                     ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))


def _openblas_threads() -> list:
    """``(set, get)`` of the thread count of each OpenBLAS that the numpy
    and scipy wheels bundle (in ``numpy.libs`` and ``scipy.libs``) and this
    process has loaded, as ``ctypes`` functions; an empty list where none is
    found (another BLAS, or another platform)."""
    nowhere = getattr(os, "RTLD_NOLOAD", None)
    controls = []
    for name in ("numpy", "scipy") if nowhere is not None else ():
        root = Path(sys.modules[name].__file__).parent
        for path in sorted(root.parent.glob(f"{name}.libs/*openblas*")):
            try:  # only a library already loaded: RTLD_NOLOAD loads none
                library = ctypes.CDLL(str(path), mode=nowhere | os.RTLD_LAZY)
            except OSError:
                continue
            for setter, getter in _OPENBLAS_THREADS:
                if hasattr(library, setter) and hasattr(library, getter):
                    set_threads, get_threads = getattr(library, setter), getattr(library, getter)
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    controls.append((set_threads, get_threads))
                    break
    return controls


@contextmanager
def _one_blas_thread():
    """One thread on every loaded OpenBLAS while a fork pool runs, the
    counts restored after it. Every matrix here is at most 24 x 24, so BLAS
    threads buy nothing, and one per core in each worker oversubscribes the
    host. The workers inherit the count when they fork: setting it in a
    worker would restart OpenBLAS's thread pool there, whose threads spin
    before they sleep."""
    controls = _openblas_threads()
    counts = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, counts):
            set_threads(count)


def _sweep_batch(args) -> list:
    """``(final fidelity, max fidelity, durations)`` at each of a batch of
    grid points ``(config, points)``: one :func:`_run` per point for an
    optimized schedule, whose search is sequential, and else one
    :func:`run_monitoring_batch` of them all; module-level so it pickles."""
    config, points = args
    if config.schedule_mode == "optimized":
        results = [_run(config, point)[1] for point in points]
    else:
        results = run_monitoring_batch(config.program,
                                       [config.physical_params(point) for point in points],
                                       config.schedule(),
                                       samples_per_step=config.samples_per_step)
    return [(res.final_fidelity, res.max_fidelity, res.schedule.durations) for res in results]


def cmd_sweep(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    if not config.sweep_axes:
        raise ConfigError("sweep command needs a 'sweep' section with axes")
    points = config.sweep_points()

    # A fork pool starts all of its workers on the first submit, so it is
    # bounded by the CPUs this process may run on. The serial path keeps the
    # process's BLAS threads as they are.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, len(points), cpus or 1)
    # Batches in grid order, one per worker, of at most RUN_CACHE_SIZE points,
    # so a batch's derived state stays in the run caches and its memory bounded.
    n_batches = max(workers, -(-len(points) // RUN_CACHE_SIZE))
    size = -(-len(points) // n_batches)
    jobs = [(config, points[first:first + size]) for first in range(0, len(points), size)]
    if workers > 1:
        with _one_blas_thread(), ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_batch, jobs))
    else:
        batches = [_sweep_batch(job) for job in jobs]
    results = [res for batch in batches for res in batch]

    header = _base_header(config, "sweep")
    names = [name for name, _ in config.sweep_axes]
    header["axes"] = " ".join(names)
    columns = {name: [point[name] for point in points] for name in names}
    columns["final_fidelity"] = [res[0] for res in results]
    columns["max_fidelity"] = [res[1] for res in results]
    for k in range(config.n_steps()):
        columns[f"t_mon{k + 1}_us"] = [res[2][k] * 1e6 for res in results]
    _write_columns(out_dir / "sweep.csv", header, columns)
    best = max(res[0] for res in results)
    print(f"{len(points)} grid points; best final fidelity {best:.6f}; "
          f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_optimize(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    schedule, result = _run(replace(config, schedule_mode="optimized"))
    diffs = np.diff(result.fidelities)
    header = _base_header(config, "optimize")
    header["optimized_steps_us"] = " ".join(f"{t * 1e6:.6g}" for t in schedule.durations)
    header["final_fidelity"] = f"{result.final_fidelity:.12g}"
    header["trace_monotone"] = bool(len(diffs) == 0 or diffs.min() >= -1e-6)
    _write_columns(out_dir / "optimize.csv", header, _trace_columns(result))
    steps = ", ".join(f"{t * 1e6:.2f}" for t in schedule.durations)
    print(f"optimized steps [us]: {steps}; final fidelity "
          f"{result.final_fidelity:.6f}; wrote {out_dir / 'optimize.csv'}")
    return EXIT_OK


def cmd_oracle(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    program = config.program
    params = config.physical_params()
    r_db = params.r_cluster_db
    header = _base_header(config, "oracle")

    # The cluster carries the default input (momentum-squeezed vacuum at the
    # cluster squeezing) on its input nodes.
    pattern = program.pattern
    cluster = build_cluster(pattern.graph, r_db)
    output = pattern.complete(cluster)
    header["phases"] = " ".join(f"{x:.12g}" for x in pattern.phases)
    header["target_matrix"] = " ".join(f"{x:.12g}" for x in program.target.ravel())

    nullifiers = nullifier_variances(cluster, pattern.graph)
    header["cluster_nodes"] = pattern.graph.n_nodes
    flat = output.cov.ravel()
    _write_columns(out_dir / "oracle.csv", header, {
        "index": np.arange(flat.size),
        "output_cov": flat,
    })
    _write_columns(out_dir / "nullifiers.csv", dict(header), {
        "node": np.arange(pattern.graph.n_nodes),
        "nullifier_variance": nullifiers,
    })
    print(f"projective oracle output ({output.n_modes} mode(s)); "
          f"max nullifier variance {nullifiers.max():.4g}; "
          f"wrote {out_dir / 'oracle.csv'}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "optimize": cmd_optimize,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechmbqc",
        description="Monitored-vs-projective Gaussian MBQC experiments",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", type=Path, help="JSON experiment config")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set when no --config is given")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory (created if missing)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = load_config(args.config)
        elif args.preset is not None:
            config = config_from_dict({"preset": args.preset})
        else:
            raise ConfigError(f"provide --config PATH or --preset {'|'.join(sorted(PRESETS))}")
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory "
                              f"{args.out}: {exc.strerror}") from exc
        return _COMMANDS[args.command](config, args.out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnphysicalStateError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
