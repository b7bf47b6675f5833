"""Experiment configuration: JSON files with explicit units in key names.

Rates quoted as ordinary frequencies carry ``_hz`` suffixes and are
multiplied by 2 pi on conversion; the drive-enhanced coupling is quoted as an
angular rate directly (``alpha_g_rad_per_s``), so no hidden 2 pi factors
survive into the physics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .dynamics import sample_cap
from .mbqc import GateProgram, named_program
from .optomech import PRESETS, MonitoringSchedule, PhysicalParams


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


PARAM_KEYS = tuple(PRESETS["set1"].keys())

_SCHEDULE_MODES = ("equal", "optimized", "explicit")

# Most points a sweep grid may hold. Every point's parameters are built and
# checked at load, about 50 us each on one Xeon core, so 10**6 points take
# about a minute and 220 MB before the first point runs. The points then run
# in batches of at most optomech.RUN_CACHE_SIZE (8) per worker; a batch of 8
# peaks at about 8 MB of allocations (tracemalloc) at 120 samples per step on
# the five-node chain, against 1.3 MB for its points one at a time.
MAX_SWEEP_POINTS = 10**6


def _number(value, what: str) -> float:
    """A JSON number as a float; booleans and strings are not numbers, and
    an integer beyond the float range is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} must be finite, got an integer beyond "
                          "the float range") from None


def params_from_dict(values: dict) -> PhysicalParams:
    """Convert a config-units parameter mapping to PhysicalParams."""
    unknown = set(values) - set(PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    missing = set(PARAM_KEYS) - set(values)
    if missing:
        raise ConfigError(f"missing parameter keys: {sorted(missing)}")
    values = {key: _number(value, f"parameter '{key}'")
              for key, value in values.items()}
    try:
        return PhysicalParams.from_values(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: parameter set, gate program, schedule and sweep axes.

    ``samples_per_step`` is the ``n_samples`` of each step's
    ``dynamics.sample_step``, which states the count rule, in monitored runs
    of a fixed schedule only; an optimized schedule (``optimize``, or
    ``simulate`` and ``sweep`` on such a config) always replays at
    ``optomech.SAMPLES_PER_STEP`` (120).
    """

    param_values: dict
    gate: str
    schedule_mode: str
    t_mon_us: float
    time_resolution_us: float
    max_step_us: float
    explicit_durations_us: tuple
    sweep_axes: tuple
    samples_per_step: int

    def __post_init__(self):
        if not isinstance(self.gate, str):
            raise ConfigError(f"'gate' must be a string, got {self.gate!r}")
        try:
            object.__setattr__(self, "samples_per_step",
                               sample_cap(self.samples_per_step, "'samples_per_step'"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.schedule_mode not in _SCHEDULE_MODES:
            raise ConfigError(
                f"schedule mode must be one of {_SCHEDULE_MODES}, "
                f"got '{self.schedule_mode}'"
            )
        try:
            self.program
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for key, values in (("t_mon_us", (self.t_mon_us,)),
                            ("resolution_us", (self.time_resolution_us,)),
                            ("max_step_us", (self.max_step_us,)),
                            ("durations_us", self.explicit_durations_us)):
            for value in values:
                if not 0 < _number(value, f"schedule '{key}'") < np.inf:
                    raise ConfigError(f"schedule '{key}' must be positive and "
                                      f"finite, got {value!r}")
        if (self.schedule_mode == "explicit"
                and len(self.explicit_durations_us) != self.n_steps()):
            raise ConfigError(f"explicit schedule needs {self.n_steps()} durations, "
                              f"got {len(self.explicit_durations_us)}")
        for axis_name, values in self.sweep_axes:
            if not isinstance(axis_name, str):
                raise ConfigError(f"sweep axis 'param' must be a string, got {axis_name!r}")
            if axis_name not in PARAM_KEYS:
                raise ConfigError(f"sweep axis '{axis_name}' is not a parameter")
            if len(values) < 1:
                raise ConfigError(f"sweep axis '{axis_name}' has no points")
        axis_names = [name for name, _ in self.sweep_axes]
        if len(set(axis_names)) < len(axis_names):
            raise ConfigError(f"sweep axes repeat a parameter: {axis_names}")
        n_points = math.prod(len(values) for _, values in self.sweep_axes)
        if n_points > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep grid has {n_points} points, more than "
                              f"{MAX_SWEEP_POINTS}")

    @cached_property
    def program(self) -> GateProgram:
        """The configured gate program, built once per config."""
        return named_program(self.gate)

    def n_steps(self) -> int:
        return len(self.program.pattern.measured)

    def physical_params(self, overrides: dict = None) -> PhysicalParams:
        """The configured parameters, with sweep ``overrides`` applied."""
        values = dict(self.param_values)
        if overrides:
            values.update(overrides)
        return params_from_dict(values)

    def sweep_points(self) -> list:
        """Parameter overrides at each sweep grid point, last axis fastest."""
        names = [name for name, _ in self.sweep_axes]
        return [dict(zip(names, point)) for point in
                itertools.product(*(values for _, values in self.sweep_axes))]

    def schedule(self) -> MonitoringSchedule:
        if self.schedule_mode == "equal":
            return MonitoringSchedule.equal(self.t_mon_us * 1e-6, self.n_steps())
        if self.schedule_mode == "explicit":
            return MonitoringSchedule(tuple(t * 1e-6 for t in self.explicit_durations_us))
        raise ConfigError("an optimized schedule is produced by the optimizer")

    def digest(self) -> str:
        fields = asdict(self)
        fields["params"] = fields.pop("param_values")
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _convert(kind, value, what: str):
    """``kind(value)``, with a failure reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} has the wrong type: {value!r}") from exc


def _axis_values(spec: dict) -> list:
    if "values" in spec:
        return [_number(v, "sweep value")
                for v in _convert(list, spec["values"], "sweep axis 'values'")]
    try:
        start, stop, count = spec["start"], spec["stop"], spec["count"]
    except KeyError as exc:
        raise ConfigError(f"sweep axis needs 'values' or start/stop/count: {exc}")
    start, stop = (_number(x, "sweep axis start/stop") for x in (start, stop))
    count = _number(count, "sweep axis count")
    if not (count >= 1 and count.is_integer()):
        raise ConfigError(f"sweep axis count must be a positive integer, got {count!r}")
    if count > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep axis count {count:.15g} is more than {MAX_SWEEP_POINTS}")
    return [float(v) for v in np.linspace(start, stop, int(count))]


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a JSON object")
    known = {"preset", "params", "gate", "schedule", "sweep", "samples_per_step"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    preset = raw.get("preset")
    if preset is not None and (not isinstance(preset, str) or preset not in PRESETS):
        raise ConfigError(f"unknown preset '{preset}'; have {sorted(PRESETS)}")
    values = dict(PRESETS[preset]) if preset else {}
    overrides = raw.get("params", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'params' must be an object")
    values.update(overrides)

    schedule = raw.get("schedule", {})
    if not isinstance(schedule, dict):
        raise ConfigError("'schedule' must be an object")
    sched_known = {"mode", "t_mon_us", "resolution_us", "max_step_us", "durations_us"}
    sched_unknown = set(schedule) - sched_known
    if sched_unknown:
        raise ConfigError(f"unknown schedule keys: {sorted(sched_unknown)}")

    sweep = raw.get("sweep")
    axes = []
    if "sweep" in raw:
        if not isinstance(sweep, dict) or "axes" not in sweep:
            raise ConfigError("'sweep' must be an object with an 'axes' list")
        for axis in _convert(list, sweep["axes"], "sweep 'axes'"):
            axis = _convert(dict, axis, "sweep axis")
            axes.append((axis.get("param", ""), tuple(_axis_values(axis))))
        if not 1 <= len(axes) <= 2:
            raise ConfigError("sweeps support one or two axes")

    t_mon_us, resolution_us, max_step_us = (
        _number(schedule.get(key, default), f"schedule '{key}'")
        for key, default in (("t_mon_us", 60.0), ("resolution_us", 2.0),
                             ("max_step_us", 200.0)))
    config = ExperimentConfig(
        param_values=values,
        gate=raw.get("gate", "shear:1"),
        schedule_mode=schedule.get("mode", "equal"),
        t_mon_us=t_mon_us,
        time_resolution_us=resolution_us,
        max_step_us=max_step_us,
        explicit_durations_us=_convert(tuple, schedule.get("durations_us", ()),
                                       "schedule 'durations_us'"),
        sweep_axes=tuple(axes),
        samples_per_step=raw.get("samples_per_step", 60),
    )
    for overrides in config.sweep_points():  # validate every point up front
        config.physical_params(overrides)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # bad JSON, non-UTF-8 bytes or an over-long integer
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)
