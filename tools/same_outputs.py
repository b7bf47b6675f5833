"""Check that two checkouts give bit-identical benchmark outputs.

Usage (from anywhere):

    python3 tools/same_outputs.py --base ../parent --change . --seed 3 --ops 32

``--base`` and ``--change`` are two checkouts of this repository, for
example the parent commit unpacked with ``git archive`` and the working
tree. For each benchmark workload (``protocol``, ``optimize`` and
``sweep``), one subprocess per checkout runs the first ``--ops`` ops of the
seed's stream on that checkout's ``src``, with one BLAS thread. The op
streams come from this repository's ``perfbench/workloads.py``, which is
only read, so both sides get the same inputs.

Each side reports one sha256 per output field over all ops, in order:

* ``protocol``: times, fidelities and the output covariance of each run;
* ``optimize``: the step durations, then the same three fields of the
  replayed run;
* ``sweep``: the bytes of each op's ``sweep.csv``, and its columns at full
  precision, captured before they are formatted by wrapping
  ``cli._write_columns``: the file prints 12 significant digits, so a
  last-bit change of a sweep point shows only in the columns.

Arrays are hashed as float64 bytes, so a difference in the last bit, or in
the sign of a zero, is a mismatch. A float field that differs is also
sized: the report says whether the two sides' arrays have the same shapes,
op by op, and if they do, gives the largest difference, absolute for
fidelities and covariances and relative to the base's entry for times and
durations. A method change can so show that it stays within a tolerance;
any difference still counts as a mismatch.

It then runs the CLI on this repository's ``configs/`` in each checkout, one
fresh process per run with that checkout's ``src`` first on the path:
``simulate`` on ``simulate_set2.json``, ``optimize`` on
``optimize_set1.json``, and ``sweep`` on ``sweep_gamma_temperature.json``
at ``--workers 1`` and ``2``. Each run writes into an empty directory of its
own; the sha256 of every file written and the exit status are compared.

The report lists every field and file; the exit status is 0 if all are
equal and 1 otherwise. Standard library and numpy only.
"""

from __future__ import annotations

import os

# One BLAS thread on both sides, fixed before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
WORKLOADS_PY = REPO / "perfbench" / "workloads.py"
CONFIGS = REPO / "configs"
# (command, config, workers) of each CLI run.
CLI_RUNS = (
    ("simulate", "simulate_set2.json", 1),
    ("optimize", "optimize_set1.json", 1),
    ("sweep", "sweep_gamma_temperature.json", 1),
    ("sweep", "sweep_gamma_temperature.json", 2),
)
WORKLOADS = ("protocol", "optimize", "sweep")
FIELDS = {
    "protocol": ("times", "fidelities", "output_cov"),
    "optimize": ("durations", "times", "fidelities", "output_cov"),
    "sweep": ("sweep_csv", "sweep_columns"),
}
# Float fields whose difference is sized relative to the base's entries; the
# other float fields are sized in absolute terms.
RELATIVE = ("times", "durations")


def _float_array(values) -> np.ndarray:
    """``values`` as a contiguous float64 array, whose bytes are hashed."""
    return np.ascontiguousarray(values, dtype=np.float64)


def _result_arrays(result) -> dict:
    """The compared fields of a ``ProtocolResult``."""
    return {"times": _float_array(result.times),
            "fidelities": _float_array(result.fidelities),
            "output_cov": _float_array(result.output_state.cov)}


def run_workload(workloads, name: str, seed: int, n_ops: int) -> dict:
    """``{field: {"sha256": digest}}`` of the first ``n_ops`` ops of one
    workload; a float field also carries each op's array ``shapes`` and all
    its ``values``, flattened in order."""
    hashes = {field: hashlib.sha256() for field in FIELDS[name]}
    arrays = {field: [] for field in FIELDS[name] if field != "sweep_csv"}
    with tempfile.TemporaryDirectory() as work_dir:
        workload = workloads.setup(name, seed, Path(work_dir))
        cli, columns = workload.api.cli, []
        write_columns = cli._write_columns

        def capturing_write(path, header, named_columns):
            columns.append(_float_array(list(named_columns.values())))
            return write_columns(path, header, named_columns)

        cli._write_columns = capturing_write
        try:
            for index in range(n_ops):
                raw = workload.run(workload.op(index))
                if name == "protocol":
                    parts = _result_arrays(raw)
                elif name == "optimize":
                    schedule, result = raw
                    parts = dict(_result_arrays(result),
                                 durations=_float_array(schedule.durations))
                else:
                    if raw != 0:
                        raise RuntimeError(f"sweep op {index} exited {raw}")
                    csv_path = workload._out_dir() / "sweep.csv"
                    parts = {"sweep_csv": csv_path.read_bytes(),
                             "sweep_columns": columns.pop()}
                    csv_path.unlink()
                for field, value in parts.items():
                    hashes[field].update(value)
                    if field in arrays:
                        arrays[field].append(value)
        finally:
            cli._write_columns = write_columns
            workload.cleanup()
    return {field: {"sha256": h.hexdigest(), **_shapes_and_values(arrays.get(field))}
            for field, h in hashes.items()}


def _shapes_and_values(arrays) -> dict:
    """The ``shapes`` and flattened ``values`` of a field's arrays, or
    nothing for a field of bytes (``None``)."""
    if arrays is None:
        return {}
    return {"shapes": [list(np.shape(a)) for a in arrays],
            "values": np.concatenate([np.ravel(a) for a in arrays]).tolist()}


def mismatch_size(field: str, base: dict, change: dict) -> str:
    """How far a differing float field moved: whether the shapes match,
    and if so the largest difference, relative for :data:`RELATIVE` fields
    and absolute otherwise."""
    if base["shapes"] != change["shapes"]:
        return "shapes differ"
    b, c = np.array(base["values"]), np.array(change["values"])
    delta = np.abs(c - b)
    delta[(c == b) | (np.isnan(b) & np.isnan(c))] = 0.0
    if field in RELATIVE:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(delta == 0.0, 0.0, delta / np.abs(b))
    largest = float(np.max(delta, initial=0.0))
    return f"shapes equal, max |d| {largest:.3g} ({'relative' if field in RELATIVE else 'absolute'})"


def child(checkout: Path, seed: int, n_ops: int):
    """Print the JSON digest of every workload run on ``checkout``'s source."""
    sys.path[:0] = [str(checkout / "src")]
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    import mechmbqc

    source = Path(mechmbqc.__file__).resolve()
    if not source.is_relative_to((checkout / "src").resolve()):
        sys.exit(f"same_outputs: imported {source}, not {checkout}'s source")
    digest = {name: run_workload(workloads, name, seed, n_ops) for name in WORKLOADS}
    print(json.dumps(digest))


def digest_of(checkout: Path, seed: int, n_ops: int) -> dict:
    """One checkout's digest, computed in a subprocess of its own."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout),
            "--seed", str(seed), "--ops", str(n_ops)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"same_outputs: {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def cli_digest(checkout: Path) -> dict:
    """``{run: {"exit": status, "files": {name: sha256}}}`` of the CLI runs
    of :data:`CLI_RUNS` on ``checkout``'s source."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    digest = {}
    for command, config, workers in CLI_RUNS:
        with tempfile.TemporaryDirectory() as out_dir:
            argv = [sys.executable, "-m", "mechmbqc.cli", command,
                    "--config", str(CONFIGS / config), "--out", out_dir,
                    "--workers", str(workers)]
            proc = subprocess.run(argv, cwd=out_dir, env=env, capture_output=True)
            out = Path(out_dir)
            files = {path.relative_to(out).as_posix():
                     hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in sorted(out.rglob("*")) if path.is_file()}
        run = f"{command} {Path(config).stem} --workers {workers}"
        digest[run] = {"exit": proc.returncode, "files": files}
    return digest


def compare_cli(base: dict, change: dict) -> int:
    """Print one line per CLI run and file; return the number of mismatches."""
    mismatches = 0
    for run in base:
        b_run, c_run = base[run], change[run]
        verdict = "equal" if b_run["exit"] == c_run["exit"] else "DIFFERENT"
        mismatches += verdict != "equal"
        print(f"cli       {run}  exit base {b_run['exit']}  change {c_run['exit']}  {verdict}")
        for name in sorted(b_run["files"].keys() | c_run["files"].keys()):
            b_hash = b_run["files"].get(name, "(missing)")
            c_hash = c_run["files"].get(name, "(missing)")
            verdict = "equal" if b_hash == c_hash else "DIFFERENT"
            mismatches += verdict != "equal"
            print(f"cli       {run}  {name}  base {b_hash[:16]}  change {c_hash[:16]}  {verdict}")
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=32,
                        help="ops per workload, from the start of the stream")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    if args.child is not None:
        child(args.child.resolve(), args.seed, args.ops)
        return
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")

    digests = {side: digest_of(path.resolve(), args.seed, args.ops)
               for side, path in (("base", args.base), ("change", args.change))}
    print(f"# seed {args.seed}, first {args.ops} ops of each workload")
    mismatches = 0
    for name in WORKLOADS:
        for field in FIELDS[name]:
            base, change = digests["base"][name][field], digests["change"][name][field]
            b_hash, c_hash = base["sha256"], change["sha256"]
            verdict = "equal"
            if b_hash != c_hash:
                mismatches += 1
                verdict = "DIFFERENT"
                if "values" in base:
                    verdict += f"  {mismatch_size(field, base, change)}"
            print(f"{name:9s} {field:13s} base {b_hash[:16]}  change {c_hash[:16]}  {verdict}")
    mismatches += compare_cli(*(cli_digest(path.resolve())
                                for path in (args.base, args.change)))
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
