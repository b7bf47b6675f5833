"""Command-line experiment runner.

Subcommands: simulate (one monitored protocol run), sweep (grid of runs over
one or two parameters), optimize (per-step monitoring-time search), oracle
(projective-measurement reference outputs). All outputs are columnar text
with '#'-prefixed header metadata including the config hash, so identical
configurations reproduce identical files.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .dynamics import PhysicalityError
from .optomech import optimize_schedule, run_monitoring_protocol
from .states import build_cluster, nullifier_variances

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
        "gate": config.gate,
    }


def _trace_columns(result) -> dict:
    """The fidelity trace of a protocol run, with 1-based step numbers."""
    step_index = np.empty(len(result.times), dtype=int)
    for k, sl in enumerate(result.step_slices):
        step_index[sl] = k + 1
    return {"time_s": result.times, "step": step_index,
            "fidelity": result.fidelities}


def cmd_simulate(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    params = config.physical_params()
    result = run_monitoring_protocol(
        config.program(), params, config.schedule(),
        samples_per_step=config.samples_per_step,
    )
    header = _base_header(config, "simulate")
    header["schedule_us"] = " ".join(f"{t * 1e6:.6g}" for t in result.schedule.durations)
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


def _sweep_point(args):
    """Worker for one grid point; module-level so it pickles."""
    config, overrides = args
    params = config.physical_params(overrides)
    program = config.program()
    if config.schedule_mode == "optimized":
        schedule, result = optimize_schedule(
            program, params,
            time_resolution=config.time_resolution_us * 1e-6,
            max_step_duration=config.max_step_us * 1e-6,
        )
        durations = schedule.durations
    else:
        result = run_monitoring_protocol(program, params, config.schedule(),
                                         samples_per_step=config.samples_per_step)
        durations = result.schedule.durations
    return result.final_fidelity, result.max_fidelity, durations


def cmd_sweep(config: ExperimentConfig, out_dir: Path, workers: int) -> int:
    if not config.sweep_axes:
        raise ConfigError("sweep command needs a 'sweep' section with axes")
    points = config.sweep_points()
    jobs = [(config, point) for point in points]

    # A fork pool starts all of its workers on the first submit.
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]

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
    params = config.physical_params()
    schedule, result = optimize_schedule(
        config.program(), params,
        time_resolution=config.time_resolution_us * 1e-6,
        max_step_duration=config.max_step_us * 1e-6,
    )
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
    program = config.program()
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
    parser.add_argument("--preset", choices=("set1", "set2"),
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
            raise ConfigError("provide --config PATH or --preset set1|set2")
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, args.out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PhysicalityError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
