"""Seeded operation streams and per-operation output checks.

Each workload is an unbounded stream of operations ("ops") cut into blocks;
op ``i`` of a seed is always the same input. A block is a stratified sample
of the workload's input ranges: every class of op (gate, preset) at every
stratum of the continuous parameter, in a fixed order. Op ``i`` of every
seed falls in the same cell, and a run of whole blocks does the same mix of
work on every seed. The seed draws the point inside each cell and the free
parameters (shear strengths, sweep grids).

This module imports only numpy and the standard library at import time; it
reaches the simulator through :class:`Api`, which the caller builds after
putting the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Ops built during set-up, before the first timed op.
SETUP_OPS = 32

# Output checks shared by every workload.
FIDELITY_ABS_TOL = 1e-10
SYMMETRY_RTOL = 1e-12
PHYSICALITY_SLACK = 1e-9

PROTOCOL_SAMPLES_PER_STEP = 120
OPTIMIZE_RESOLUTION = 2e-6
OPTIMIZE_MAX_STEP = 200e-6
SWEEP_T_MON_US = 60.0
SWEEP_SAMPLES_PER_STEP = 16

GATES = ("identity", "fourier", "shear", "cz")
MAX_SHEAR = 5.0


class CheckFailed(Exception):
    """An op returned, but its output failed a check."""


def gate_name(gate: str, rng) -> str:
    """A gate of the program set; shears draw lambda uniformly in [0, 5]."""
    if gate == "shear":
        return f"shear:{rng.uniform(0.0, MAX_SHEAR):.6f}"
    return gate


def factorial_block(rng, n_classes: int, n_strata: int) -> list:
    """Every (class, stratum) cell once, as ``(class, u)`` pairs, u in [0, 1).

    Op ``k`` takes class ``k mod n_classes`` and stratum
    ``(k // n_classes + k) mod n_strata``, so every run of ``n_classes``
    consecutive ops covers each class once and the strata evenly. Each class
    meets every stratum when ``n_classes + 1`` and ``n_strata`` are coprime.
    Each stratum is split again into one slot per class (rotating with the
    stratum), and ``u`` is uniform in its slot: the block's values of ``u``
    form a Latin hypercube, so seeds differ little in total cost.
    """
    if math.gcd(n_classes + 1, n_strata) != 1:
        raise ValueError("n_classes + 1 and n_strata must be coprime")
    cells = []
    for k in range(n_classes * n_strata):
        cls = k % n_classes
        stratum = (k // n_classes + k) % n_strata
        slot = (cls + stratum) % n_classes
        u = (stratum + (slot + rng.random()) / n_classes) / n_strata
        cells.append((cls, u))
    return cells


def min_symplectic_eigenvalue(cov: np.ndarray) -> float:
    """Independent of the simulator: eigenvalues of Omega sigma are +/- i nu."""
    n = cov.shape[0] // 2
    omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.min(np.abs(np.linalg.eigvals(omega @ cov))))


def check_fidelity(value: float, what: str):
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckFailed(f"{what} = {value!r} is outside [0, 1]")


def check_covariance(cov: np.ndarray):
    cov = np.asarray(cov, dtype=float)
    scale = max(1.0, float(np.max(np.abs(cov))))
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise CheckFailed(f"output covariance asymmetric by {asym:.3e}")
    nu = min_symplectic_eigenvalue(cov)
    if nu < 0.5 - PHYSICALITY_SLACK:
        raise CheckFailed(f"output covariance unphysical (min nu = {nu:.12g})")


def check_close(got: float, want: float, what: str):
    if abs(got - want) > FIDELITY_ABS_TOL:
        raise CheckFailed(f"{what} = {got!r}, pinned {want!r}")


def check_protocol_result(result, want: dict) -> tuple:
    """Checks on a ``ProtocolResult``; returns (final, max) fidelity."""
    final, best = result.final_fidelity, result.max_fidelity
    check_fidelity(final, "final fidelity")
    check_fidelity(best, "max fidelity")
    check_fidelity(float(np.min(result.fidelities)), "min fidelity")
    check_covariance(result.output_state.cov)
    if want:
        check_close(final, want["final"], "final fidelity")
        check_close(best, want["max"], "max fidelity")
    return final, best


def fidelity_digest(rows) -> str:
    """sha256 of fidelities rounded to 1e-9, one op per line."""
    text = "\n".join(",".join(f"{f:.9f}" for f in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Api:
    """The simulator's modules, imported from the checkout under test."""

    def __init__(self):
        from mechmbqc import cli, mbqc, optomech

        self.cli = cli
        self.mbqc = mbqc
        self.optomech = optomech
        self.presets = {"set1": optomech.params_set1(),
                        "set2": optomech.params_set2()}


@dataclass
class OpResult:
    """What one op produced, reduced to the fidelities and checks."""

    fidelities: tuple
    detail: dict = field(default_factory=dict)


class Workload:
    """Base class: lazily materialised op stream plus run/check per op."""

    name = ""
    block_size = 1

    def __init__(self, api: Api, seed: int, work_dir: Path, expected: list):
        self.api = api
        self.seed = seed
        self.work_dir = work_dir
        self.expected = expected if seed == DEFAULT_SEED else []
        self.ops = []
        self.op(SETUP_OPS - 1)

    def op(self, index: int):
        while index >= len(self.ops):
            block = len(self.ops) // self.block_size
            rng = np.random.default_rng([self.seed % 2**64, block])
            self.ops.extend(self.make_op(spec)
                            for spec in self.make_block(rng, block))
        return self.ops[index]

    def make_block(self, rng, block: int) -> list:
        """Input specs (JSON-able dicts) of block number ``block``."""
        raise NotImplementedError

    def make_op(self, spec: dict):
        """(spec, prepared arguments...) for one op."""
        raise NotImplementedError

    def run(self, op):
        """The timed public call; returns the raw result."""
        raise NotImplementedError

    def check(self, index: int, op, raw) -> OpResult:
        raise NotImplementedError

    def pinned(self, index: int) -> dict:
        """Pinned outputs of op ``index`` (default seed only), or {}."""
        return self.expected[index] if index < len(self.expected) else {}

    def cleanup(self):
        pass


class ProtocolWorkload(Workload):
    """One ``run_monitoring_protocol`` call on an equal schedule."""

    name = "protocol"
    block_size = 32

    def make_block(self, rng, block):
        # Every (gate, preset) class at a step length from every quarter of
        # [20, 80] us; run time is close to linear in the step length.
        classes = [(g, p) for g in GATES for p in ("set1", "set2")]
        return [{"gate": gate_name(classes[c][0], rng),
                 "preset": classes[c][1], "t_mon_us": 20.0 + 60.0 * u}
                for c, u in factorial_block(rng, len(classes), 4)]

    def make_op(self, spec):
        program = self.api.mbqc.named_program(spec["gate"])
        n_steps = len(program.measurement_phases())
        schedule = self.api.optomech.MonitoringSchedule.equal(
            spec["t_mon_us"] * 1e-6, n_steps)
        return spec, program, self.api.presets[spec["preset"]], schedule

    def run(self, op):
        _, program, params, schedule = op
        return self.api.optomech.run_monitoring_protocol(
            program, params, schedule,
            samples_per_step=PROTOCOL_SAMPLES_PER_STEP)

    def check(self, index, op, result):
        final, best = check_protocol_result(result, self.pinned(index))
        return OpResult((final, best), {"final": final, "max": best})


class OptimizeWorkload(Workload):
    """One ``optimize_schedule`` call on set1 at 2 us resolution."""

    name = "optimize"
    block_size = 12

    def make_block(self, rng, block):
        # Every gate at a temperature from every third of log-uniform
        # 1-10 mK; the search cost falls steeply with temperature.
        return [{"gate": gate_name(GATES[g], rng),
                 "temperature_k": 10.0 ** (-3.0 + u)}
                for g, u in factorial_block(rng, len(GATES), 3)]

    def make_op(self, spec):
        program = self.api.mbqc.named_program(spec["gate"])
        params = replace(self.api.presets["set1"],
                         temperature_k=spec["temperature_k"])
        return spec, program, params

    def run(self, op):
        _, program, params = op
        return self.api.optomech.optimize_schedule(
            program, params, time_resolution=OPTIMIZE_RESOLUTION,
            max_step_duration=OPTIMIZE_MAX_STEP)

    def check(self, index, op, raw):
        schedule, result = raw
        want = self.pinned(index)
        final, best = check_protocol_result(result, want)
        durations = [float(t) for t in schedule.durations]
        if any(not t > 0.0 for t in durations):
            raise CheckFailed(f"non-positive step duration in {durations}")
        if want and durations != want["durations"]:
            raise CheckFailed(f"durations {durations}, pinned {want['durations']}")
        return OpResult((final, best), {"final": final, "max": best,
                                        "durations": durations})


class SweepWorkload(Workload):
    """One ``mechmbqc sweep`` through ``cli.main`` with one worker.

    The config is owned by the benchmark: set1, shear:1, equal 60 us steps,
    ``samples_per_step: 16`` and a 2 x 2 gamma x temperature grid drawn from
    the stream.
    """

    name = "sweep"
    block_size = 1

    def make_block(self, rng, block):
        # Run time hardly depends on gamma or temperature, so one op is a
        # block: gamma/2pi uniform in [0, 80] Hz, temperature log-uniform
        # in [0.1, 10] mK.
        gammas = sorted(round(float(x), 6) for x in rng.uniform(0.0, 80.0, 2))
        temps = sorted(float(f"{x:.6g}") for x in 10.0 ** rng.uniform(-4, -2, 2))
        return [{"gamma_hz": gammas, "temperature_k": temps}]

    def make_op(self, spec):
        gammas, temps = spec["gamma_hz"], spec["temperature_k"]
        config = {
            "preset": "set1",
            "gate": "shear:1",
            "schedule": {"mode": "equal", "t_mon_us": SWEEP_T_MON_US},
            "samples_per_step": SWEEP_SAMPLES_PER_STEP,
            "sweep": {"axes": [
                {"param": "gamma_hz", "values": gammas},
                {"param": "temperature_k", "values": temps},
            ]},
        }
        path = self.work_dir / f"sweep-{len(self.ops)}.json"
        path.write_text(json.dumps(config, indent=1))
        return spec, path, len(gammas) * len(temps)

    def _out_dir(self) -> Path:
        return self.work_dir / "sweep-out"

    def run(self, op):
        _, path, _ = op
        argv = ["sweep", "--config", str(path), "--out", str(self._out_dir()),
                "--workers", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.api.cli.main(argv)

    def check(self, index, op, code):
        _, _, n_points = op
        csv_path = self._out_dir() / "sweep.csv"
        if code != 0:
            raise CheckFailed(f"cli.main returned exit code {code}")
        try:
            lines = [line for line in csv_path.read_text().splitlines()
                     if not line.startswith("#")]
        finally:
            with contextlib.suppress(FileNotFoundError):
                csv_path.unlink()
        rows = list(csv.DictReader(lines))
        if len(rows) != n_points:
            raise CheckFailed(f"sweep.csv has {len(rows)} rows, "
                              f"grid has {n_points} points")
        fids = []
        for row in rows:
            try:
                final = float(row["final_fidelity"])
                best = float(row["max_fidelity"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckFailed(f"sweep.csv row does not parse: {exc}")
            check_fidelity(final, "final fidelity")
            check_fidelity(best, "max fidelity")
            fids.extend((final, best))
        want = self.pinned(index)
        if want:
            if len(want["fidelities"]) != len(fids):
                raise CheckFailed("sweep.csv shape differs from the pin")
            for got, pinned in zip(fids, want["fidelities"]):
                check_close(got, pinned, "sweep fidelity")
        return OpResult(tuple(fids), {"fidelities": fids})

    def cleanup(self):
        for path in self.work_dir.glob("sweep-*.json"):
            path.unlink()
        with contextlib.suppress(OSError):
            self._out_dir().rmdir()


WORKLOADS = {w.name: w for w in (ProtocolWorkload, OptimizeWorkload,
                                 SweepWorkload)}

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(name: str) -> list:
    if not EXPECTED_PATH.exists():
        return []
    return json.loads(EXPECTED_PATH.read_text()).get(name, [])


def setup(name: str, seed: int, work_dir: Path) -> Workload:
    """Import the simulator and build the first ops of the stream."""
    os.makedirs(work_dir, exist_ok=True)
    return WORKLOADS[name](Api(), seed, work_dir, load_expected(name))
