"""End-to-end tests of the command-line harness: exit codes, file outputs
and deterministic reproduction."""

import csv
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mechmbqc import cli, dynamics, optomech
from mechmbqc import config as config_module
from mechmbqc.config import ConfigError, PRESETS, config_from_dict, load_config
from mechmbqc.optomech import run_monitoring_protocol


EXAMPLES = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "preset": "set2",
    "gate": "shear:1",
    "schedule": {"mode": "equal", "t_mon_us": 3.0},
    "samples_per_step": 6,
}


# ---------------------------------------------------------------------------
# config parsing


def test_preset_values():
    set1 = PRESETS["set1"]
    assert set1["gamma_hz"] == 8.0
    assert set1["kappa_hz"] == 0.33e6
    assert set1["tau_over_kappa"] == 0.01
    assert set1["temperature_k"] == 1e-3
    set2 = PRESETS["set2"]
    assert set2["gamma_hz"] == 0.0
    assert set2["kappa_hz"] == 0.1e6
    assert set2["eta"] == 1.0
    assert set1["r_cluster_db"] == set2["r_cluster_db"] == 3.0


def test_config_round_trip_and_hash_stability(tmp_path):
    path = write_config(tmp_path, BASE)
    config = load_config(path)
    assert config.gate == "shear:1"
    assert config.digest() == load_config(path).digest()
    changed = dict(BASE, gate="identity")
    other = config_from_dict(changed)
    assert other.digest() != config.digest()


def test_config_param_override():
    config = config_from_dict(dict(BASE, params={"temperature_k": 0.25}))
    assert config.physical_params().temperature_k == 0.25


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(dict(BASE, bogus=1))
    with pytest.raises(ConfigError, match="unknown parameter"):
        config_from_dict(dict(BASE, params={"kappa": 1.0}))


def test_config_rejects_bad_gate_and_preset():
    with pytest.raises(ConfigError):
        config_from_dict(dict(BASE, gate="toffoli"))
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict(dict(BASE, preset="set3"))


@pytest.mark.parametrize("gate", ["shear=5", "shearx", "shear_3", "shear:", "shear:nan"])
def test_misspelled_gate_is_a_config_error(tmp_path, gate):
    with pytest.raises(ConfigError, match="unknown gate program"):
        config_from_dict(dict(BASE, gate=gate))
    path = write_config(tmp_path, dict(BASE, gate=gate))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("t_mon_us", 0.0),
    ("resolution_us", -2.0),
    ("max_step_us", 0.0),
    ("durations_us", [3.0, 3.0, -1.0, 3.0]),
])
def test_non_positive_schedule_values_are_config_errors(tmp_path, capsys, key, value):
    payload = dict(BASE, schedule=dict(BASE["schedule"], **{key: value}))
    path = write_config(tmp_path, payload)
    for command in ("simulate", "optimize"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 2
        assert f"config error: schedule '{key}'" in capsys.readouterr().err


SWEEP_AXIS = {"param": "eta", "values": [0.9, 1.0]}


@pytest.mark.parametrize("durations", [[10.0, 20.0], [], [3.0] * 5])
def test_explicit_schedule_length_is_checked_at_load(tmp_path, capsys, durations):
    # shear:1 measures 4 nodes. The check runs before any command starts,
    # so no output directory is made, a sweep reports it once, and optimize
    # rejects the file as well.
    explicit = {"mode": "explicit", "durations_us": durations}
    with pytest.raises(ConfigError, match=f"needs 4 durations, got {len(durations)}"):
        config_from_dict(dict(BASE, schedule=explicit))
    payload = dict(BASE, schedule=explicit, sweep={"axes": [SWEEP_AXIS]})
    path = write_config(tmp_path, payload)
    capsys.readouterr()
    for command in ("simulate", "optimize", "sweep"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == ("config error: explicit schedule needs 4 durations, "
                       f"got {len(durations)}\n")


@pytest.mark.parametrize("payload", [
    dict(BASE, samples_per_step="abc"),
    dict(BASE, schedule=dict(BASE["schedule"], t_mon_us="x")),
    dict(BASE, schedule=dict(BASE["schedule"], t_mon_us=None)),
    dict(BASE, sweep={"axes": [dict(SWEEP_AXIS, values=["a"])]}),
    dict(BASE, sweep={"axes": ["eta"]}),
    dict(BASE, gate=7),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": "x"}]}),
    # Booleans and numeric strings are not numbers either.
    dict(BASE, params={"gamma_hz": True}),
    dict(BASE, params={"temperature_k": False}),
    dict(BASE, params={"eta": "0.5"}),
    dict(BASE, schedule=dict(BASE["schedule"], t_mon_us=True)),
    dict(BASE, schedule={"mode": "explicit", "durations_us": [3.0, True, 3.0, 3.0]}),
    dict(BASE, sweep={"axes": [dict(SWEEP_AXIS, values=[0.9, True])]}),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": True}]}),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": 2.5}]}),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": np.inf}]}),
    # A JSON integer beyond the float range is not finite.
    dict(BASE, params={"gamma_hz": 10**400}),
    dict(BASE, schedule=dict(BASE["schedule"], t_mon_us=10**400)),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": 10**400}]}),
    # A count numpy cannot allocate: beyond its size limit, and beyond memory;
    # and one it could, beyond the grid bound, refused before numpy runs.
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": 1e300}]}),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": 1e12}]}),
    dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8, "stop": 1.0,
                                "count": 1e8}]}),
    # An axis names its parameter by a string, and a present sweep is an
    # object with axes, whatever its value.
    dict(BASE, sweep={"axes": [{"param": ["gamma_hz"], "values": [1]}]}),
    dict(BASE, sweep=[]),
    dict(BASE, sweep={}),
    dict(BASE, sweep=0),
    dict(BASE, sweep=False),
    dict(BASE, sweep=""),
    dict(BASE, sweep=None),
], ids=["samples_per_step", "t_mon_us", "t_mon_us_null", "sweep_values",
        "sweep_axis", "gate", "sweep_count", "gamma_hz_bool", "temperature_k_bool",
        "eta_string", "t_mon_us_bool", "durations_us_bool", "sweep_value_bool",
        "sweep_count_bool", "sweep_count_fraction", "sweep_count_inf",
        "gamma_hz_huge_int", "t_mon_us_huge_int", "sweep_count_huge_int",
        "sweep_count_beyond_numpy", "sweep_count_beyond_memory",
        "sweep_count_beyond_grid_bound",
        "sweep_param_list", "sweep_empty_list", "sweep_empty_object", "sweep_zero",
        "sweep_false", "sweep_empty_string", "sweep_null"])
def test_wrongly_typed_config_value_exits_with_config_error(tmp_path, capsys, payload):
    with pytest.raises(ConfigError):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    for command in ("simulate", "sweep"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / command).exists()


def test_integer_beyond_float_range_is_a_config_error(tmp_path, capsys):
    # 401 digits overflow a float; past 4,300 digits the JSON parser itself
    # refuses to read the integer.
    for digits, message in ((400, "parameter 'gamma_hz' must be finite"),
                            (5000, "config is not valid JSON")):
        text = json.dumps(dict(BASE, params={"gamma_hz": "@"}))
        path = tmp_path / "config.json"
        path.write_text(text.replace('"@"', "1" + "0" * digits))
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert cli.main(["oracle", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main(["oracle", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON")


@pytest.mark.parametrize("value", [0, 1, -3, 2.5, True])
def test_samples_per_step_must_be_an_integer_of_at_least_two(tmp_path, value):
    with pytest.raises(ConfigError, match="samples_per_step"):
        config_from_dict(dict(BASE, samples_per_step=value))
    path = write_config(tmp_path, dict(BASE, samples_per_step=value))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


def test_two_samples_per_step_is_accepted():
    assert config_from_dict(dict(BASE, samples_per_step=2)).samples_per_step == 2


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), np.float64(6.0)])
def test_a_numpy_samples_per_step_that_is_not_an_integer_of_at_least_two_is_rejected(value):
    with pytest.raises(ConfigError, match="'samples_per_step' must be an integer of at least 2"):
        config_from_dict(dict(BASE, samples_per_step=value))


def test_a_numpy_integer_samples_per_step_is_stored_as_a_plain_int():
    config = config_from_dict(dict(BASE, samples_per_step=np.int64(6)))
    assert type(config.samples_per_step) is int and config.samples_per_step == 6
    assert config.digest() == config_from_dict(BASE).digest()


@pytest.mark.parametrize("key, field", [
    ("gamma_hz", "gamma"), ("kappa_hz", "kappa"), ("tau_over_kappa", "tau"),
    ("alpha_g_rad_per_s", "alpha_g"), ("temperature_k", "temperature_k"),
    ("r_post_meas_db", "r_post_meas_db"), ("r_cluster_db", "r_cluster_db"),
])
def test_non_finite_parameter_is_a_config_error(tmp_path, capsys, key, field):
    # eta's range check always excluded NaN and inf. The JSON number 1e400
    # overflows to inf when parsed.
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        text = json.dumps(dict(BASE, params={key: "@"})).replace('"@"', literal)
        with pytest.raises(ConfigError, match=f"{field} must be .*finite"):
            config_from_dict(json.loads(text))
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field} must be")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [
    dict(BASE, params={"r_cluster_db": -3}),
    dict(BASE, sweep={"axes": [{"param": "r_cluster_db", "values": [3, -3]}]}),
], ids=["params", "sweep-point"])
def test_negative_cluster_squeezing_is_a_config_error(tmp_path, capsys, payload):
    # It used to load, then fail in the cluster builder with a traceback.
    message = "r_cluster_db must be non-negative"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    for command in ("oracle", "simulate", "sweep"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [
    dict(BASE, params={"r_post_meas_db": -10}),
    dict(BASE, sweep={"axes": [{"param": "r_post_meas_db", "values": [10, -10]}]}),
], ids=["params", "sweep-point"])
def test_negative_post_measurement_squeezing_is_a_config_error(tmp_path, capsys, payload):
    # It used to run, with the squeezed quadrature silently swapped.
    message = "r_post_meas_db must be non-negative and finite"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    for command in ("oracle", "simulate", "sweep"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis", [
    {"param": "eta", "values": [1.0, 0.9, -1]},
    {"param": "gamma_hz", "values": [0.0, 10.0, np.inf]},
], ids=["eta", "gamma_hz"])
def test_sweep_values_are_validated_before_any_point_runs(tmp_path, monkeypatch, axis):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_monitoring_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_monitoring_protocol", counting)
    payload = dict(BASE, sweep={"axes": [axis]})
    with pytest.raises(ConfigError, match=f"{axis['param'].removesuffix('_hz')} must"):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert calls == []


def test_a_sweep_grid_is_bounded_before_any_point_is_built(tmp_path, capsys, monkeypatch):
    # Each axis is within the bound and the grid is not: 1,001 x 1,000 points
    # are refused before any point's parameters are validated.
    built = []
    monkeypatch.setattr(config_module, "params_from_dict", built.append)
    axes = [{"param": "eta", "start": 0.5, "stop": 1.0, "count": 1001},
            {"param": "gamma_hz", "start": 0.0, "stop": 10.0, "count": 1000}]
    assert config_module.MAX_SWEEP_POINTS == 10**6
    with pytest.raises(ConfigError, match="sweep grid has 1001000 points, more than 1000000"):
        config_from_dict(dict(BASE, sweep={"axes": axes}))
    with pytest.raises(ConfigError, match="sweep axis count 1000001 is more than 1000000"):
        config_from_dict(dict(BASE, sweep={"axes": [dict(axes[0], count=10**6 + 1)]}))
    assert built == []
    path = write_config(tmp_path, dict(BASE, sweep={"axes": axes}))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep grid has")
    assert built == []


def test_config_requires_complete_params_without_preset():
    with pytest.raises(ConfigError, match="missing parameter"):
        config_from_dict({"params": {"eta": 1.0}})


def test_config_sweep_axes_validation():
    good = dict(BASE, sweep={"axes": [{"param": "temperature_k",
                                       "values": [0.001, 0.01]}]})
    assert config_from_dict(good).sweep_axes[0][0] == "temperature_k"
    with pytest.raises(ConfigError, match="not a parameter"):
        config_from_dict(dict(BASE, sweep={"axes": [{"param": "nope",
                                                     "values": [1]}]}))
    linspace = dict(BASE, sweep={"axes": [{"param": "eta", "start": 0.8,
                                           "stop": 1.0, "count": 3}]})
    assert config_from_dict(linspace).sweep_axes[0][1] == (0.8, 0.9, 1.0)


# ---------------------------------------------------------------------------
# commands


def test_simulate_writes_deterministic_outputs(tmp_path):
    path = write_config(tmp_path, BASE)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    trace1 = (out1 / "trace.csv").read_text()
    trace2 = (out2 / "trace.csv").read_text()
    assert trace1 == trace2
    assert "# config_hash:" in trace1
    header, columns = trace1.split("time_s,step,fidelity\n")
    rows = [line.split(",") for line in columns.strip().splitlines()]
    fidelities = np.array([float(row[2]) for row in rows])
    assert np.all((fidelities >= 0) & (fidelities <= 1))
    assert (out1 / "summary.csv").exists()


def test_simulate_without_config_uses_preset(tmp_path):
    out = tmp_path / "preset_run"
    # Full default run is slow, so go through a tiny explicit config instead
    # for the preset-only path.
    rc = cli.main(["oracle", "--preset", "set1", "--out", str(out)])
    assert rc == 0
    assert (out / "oracle.csv").exists()
    assert (out / "nullifiers.csv").exists()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_oracle_runs_on_every_preset(tmp_path, capsys, preset):
    assert cli.main(["oracle", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert cli.main(["oracle"]) == 2
    assert preset in capsys.readouterr().err


def header_of(path):
    """The '# key: value' metadata of an output file."""
    return dict(line[2:].split(": ", 1) for line in path.read_text().splitlines()
                if line.startswith("# "))


@pytest.mark.parametrize("gate, written", [("identity\n", "identity"), ("shear:\n1", "shear: 1")],
                         ids=["trailing-break", "inner-break"])
def test_a_gate_name_with_a_line_break_keeps_every_header_line_metadata(
        tmp_path, gate, written):
    # The gate is written with its whitespace runs collapsed; raw, its line
    # break left a blank or a bare "1" line among the metadata, which a
    # reader of the non-'#' lines took for the column row.
    payload = dict(BASE, gate=gate, schedule={"mode": "equal", "t_mon_us": 3.0,
                                              "resolution_us": 2.0, "max_step_us": 4.0},
                   sweep={"axes": [{"param": "eta", "values": [0.99]}]})
    path = write_config(tmp_path, payload)
    files = {"simulate": ("trace.csv", "summary.csv"), "optimize": ("optimize.csv",),
             "sweep": ("sweep.csv",), "oracle": ("oracle.csv", "nullifiers.csv")}
    for command, names in files.items():
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        for name in names:
            lines = (out / name).read_text().splitlines()
            n_meta = sum(line.startswith("# ") for line in lines)
            assert all(line.startswith("# ") for line in lines[:n_meta]), name
            assert not any(line.startswith("#") for line in lines[n_meta:]), name
            assert header_of(out / name)["gate"] == written
            rows = list(csv.DictReader(lines[n_meta:]))
            assert rows and all(None not in row and None not in row.values()
                                for row in rows), name
            assert list(rows[0])[-1] in {"fidelity", "max_fidelity", "output_cov",
                                         "nullifier_variance", "t_mon4_us"}, name


def test_simulate_on_an_optimized_config_runs_the_optimizer(tmp_path):
    path = str(EXAMPLES / "optimize_set1.json")
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0
    assert cli.main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
    simulated = header_of(tmp_path / "s" / "summary.csv")
    optimized = header_of(tmp_path / "o" / "optimize.csv")
    assert simulated["schedule_us"] == optimized["optimized_steps_us"]
    assert simulated["final_fidelity"] == optimized["final_fidelity"]


def test_optimized_sweep_point_matches_optimize(tmp_path):
    payload = dict(BASE, schedule={"mode": "optimized", "resolution_us": 2.0,
                                   "max_step_us": 6.0})
    path = write_config(tmp_path, payload)
    assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    eta = PRESETS["set2"]["eta"]
    payload["sweep"] = {"axes": [{"param": "eta", "values": [eta]}]}
    path = write_config(tmp_path, payload, "sweep.json")
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    optimized = header_of(tmp_path / "o" / "optimize.csv")
    lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
    data = [line.split(",") for line in lines if not line.startswith("#")]
    row = dict(zip(data[0], data[1]))
    assert row["final_fidelity"] == optimized["final_fidelity"]
    steps = [float(row[f"t_mon{k + 1}_us"]) for k in range(4)]
    assert " ".join(f"{t:.6g}" for t in steps) == optimized["optimized_steps_us"]


def test_simulate_runs_an_astronomically_long_step(tmp_path):
    # At 60 samples per step the chunk over its grid step exceeds the
    # largest float; the grid step is floored so that the count stays finite.
    payload = {"preset": "set2", "gate": "identity",
               "schedule": {"mode": "equal", "t_mon_us": 1e300}}
    path = write_config(tmp_path, payload)
    assert config_from_dict(payload).samples_per_step == 60
    out = tmp_path / "long"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert float(header_of(out / "summary.csv")["final_fidelity"]) == pytest.approx(1.0)


def test_simulate_runs_a_samples_per_step_beyond_the_float_range(tmp_path):
    # 10^400 samples per step cannot be divided as floats; the chunks' grids
    # are coarser than either cap, so the trace is that of 10^6 samples.
    fidelities = []
    for samples in (10**400, 10**6):
        name = f"{len(str(samples))}-digits"
        path = write_config(tmp_path, {**BASE, "samples_per_step": samples}, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = [line for line in (out / "trace.csv").read_text().splitlines()
                if not line.startswith("#")]
        column = rows[0].split(",").index("fidelity")
        fidelities.append([row.split(",")[column] for row in rows[1:]])
    assert len(fidelities[0]) > 9 * 4 and fidelities[0] == fidelities[1]


def test_simulate_runs_a_step_whose_h_lambda_overflows(tmp_path):
    # Each 1e302-s chunk times the step's rate (about 3.2e7 / s at
    # kappa / 2 pi = 10 MHz) overflows. The run ends where 1e4-s steps end:
    # measured 5.7e-11 apart, and 1e4-s and 1e6-s steps 1.2e-10 apart.
    payload = {"preset": "set1", "params": {"kappa_hz": 1e7}, "gate": "identity",
               "schedule": {"mode": "equal", "t_mon_us": 1e308}, "samples_per_step": 16}
    finals = []
    for t_mon_us in (1e308, 1e10):
        payload["schedule"]["t_mon_us"] = t_mon_us
        path = write_config(tmp_path, payload, f"long{t_mon_us:g}.json")
        out = tmp_path / f"long{t_mon_us:g}"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        finals.append(float(header_of(out / "summary.csv")["final_fidelity"]))
    assert finals[0] == pytest.approx(0.927075, abs=1e-6)
    assert abs(finals[0] - finals[1]) <= 5e-10


def test_missing_config_and_args_give_config_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["simulate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, BASE)),
                     "--workers", "0"]) == 2


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file")
    for out in (taken, taken / "sub"):
        assert cli.main(["oracle", "--preset", "set1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create the output directory {out}: ")
    assert taken.read_text() == "a file"


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from mechmbqc.dynamics import PhysicalityError
    from mechmbqc.states import UnphysicalStateError

    # One error family: the CLI maps UnphysicalStateError alone to exit 3.
    error = PhysicalityError(1.5e-6, 0.3)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is PhysicalityError
    assert isinstance(error, UnphysicalStateError) and isinstance(copy, UnphysicalStateError)
    assert (copy.t, copy.nu_min, str(copy)) == (1.5e-6, 0.3, str(error))

    def boom(*args, **kwargs):
        raise PhysicalityError(0.0, -1.0)

    monkeypatch.setattr(cli, "run_monitoring_protocol", boom)
    path = write_config(tmp_path, BASE)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3
    # A failure in a sweep worker reaches the parent process intact, so the
    # exit code and the message do not depend on the worker count.
    path = write_config(tmp_path, dict(BASE, sweep={"axes": [SWEEP_AXIS]}), "sweep.json")
    capsys.readouterr()
    errors = []
    for workers in ("1", "2"):
        assert cli.main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / f"w{workers}"), "--workers", workers]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical failure: covariance lost physicality")


def test_a_failed_flow_build_exits_3(tmp_path, monkeypatch, capsys):
    # A solve that fails while a step's flow is built reaches the CLI as the
    # LinAlgError it is, so simulate exits 3 with its message.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix in a flow")

    monkeypatch.setattr(dynamics, "_flow", singular)
    capsys.readouterr()
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, BASE)),
                     "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "numerical failure: Singular matrix in a flow\n"


@pytest.mark.parametrize("error, exit_code", [
    (np.linalg.LinAlgError("singular matrix"), 3),
    (RuntimeError("not a numerical failure"), None),
], ids=["linalg-error", "plain-runtime-error"])
def test_only_numerical_errors_map_to_exit_3(tmp_path, monkeypatch, error,
                                             exit_code):
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_monitoring_protocol", boom)
    argv = ["simulate", "--config", str(write_config(tmp_path, BASE)),
            "--out", str(tmp_path / "o")]
    if exit_code is None:
        with pytest.raises(RuntimeError, match="not a numerical failure"):
            cli.main(argv)
    else:
        assert cli.main(argv) == exit_code


def test_unphysical_state_error_survives_pickle():
    # Sweep workers re-raise it in the parent process.
    from mechmbqc.states import UnphysicalStateError

    error = UnphysicalStateError("fidelity reference is not pure")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is UnphysicalStateError
    assert str(copy) == str(error)


# Runs whose numerics fail inside ``states``, on equal steps.
STATE_FAILURES = {
    # Scoring rejects the reference, which the message names. Its shortfall
    # (nu = 0.4999728) must show, so nu is printed to 9 digits, not 4.
    "set1-fourier-60db": ("set1", "fourier", {"r_cluster_db": 60.0}, 40.0, 8,
                          "fidelity input is unphysical (the reference, min "
                          "symplectic eigenvalue 0.49997"),
    # Completing the projective reference fails: the cluster rotated into
    # the measurement frame is unphysical by rounding.
    "set1-shear3-60db": ("set1", "shear:3", {"r_cluster_db": 60.0}, 40.0, 8,
                         "input state is unphysical"),
    # Rounding makes the reference, pure in exact arithmetic, look mixed.
    # These runs used to score it by the mixed-state closed form, which
    # wrote NaN at 100 dB and fidelities near 0.01 at 60 dB.
    "set1-identity-80db": ("set1", "identity", {"r_cluster_db": 80.0}, 40.0, 8,
                           "fidelity reference is not pure"),
    "set1-shear3-100db": ("set1", "shear:3", {"r_cluster_db": 100.0}, 40.0, 8,
                          "fidelity reference is not pure"),
    "set1-identity-60db": ("set1", "identity", {"r_cluster_db": 60.0}, 40.0, 8,
                           "fidelity reference is not pure"),
}


@pytest.mark.parametrize("case", list(STATE_FAILURES))
def test_numerical_failures_in_states_exit_3(tmp_path, capsys, case):
    preset, gate, params, t_mon_us, samples, message = STATE_FAILURES[case]
    payload = {"preset": preset, "gate": gate, "params": params,
               "schedule": {"mode": "equal", "t_mon_us": t_mon_us},
               "samples_per_step": samples}
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")
    assert not (out / "trace.csv").exists()  # no run writes a NaN fidelity


def test_numerical_failure_in_a_sweep_worker_exits_3(tmp_path, capsys):
    payload = {"preset": "set1", "gate": "identity",
               "schedule": {"mode": "equal", "t_mon_us": 40.0}, "samples_per_step": 8,
               "sweep": {"axes": [{"param": "r_cluster_db", "values": [3.0, 80.0]}]}}
    path = write_config(tmp_path, payload)
    errors = []
    for workers in ("1", "2"):
        assert cli.main(["sweep", "--config", str(path), "--out",
                         str(tmp_path / f"w{workers}"), "--workers", workers]) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("numerical failure: fidelity reference is not pure")


@pytest.mark.parametrize("t_mon_us", [1e5, 1e6, 1e9])
@pytest.mark.parametrize("gate", ["shear:1", "fourier", "shear:2.5"])
def test_long_steps_at_any_measured_quadrature_stay_physical(tmp_path, gate, t_mon_us):
    # Set2 steps of 0.1 s to 1000 s on nodes measured in neither q nor p.
    # Each node is measured in its own frame, so the squeezed variance is a
    # diagonal entry. Coupled to X_phi, it would be a small difference of
    # large q and p entries, and 8 of these 9 runs would lose physicality.
    payload = {"preset": "set2", "gate": gate,
               "schedule": {"mode": "equal", "t_mon_us": t_mon_us}, "samples_per_step": 16}
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    fidelities = np.array([float(row[2]) for row in rows[1:]])
    assert rows[0] == ["time_s", "step", "fidelity"] and len(fidelities) == 4 * 9
    # Every sample passed the propagation guard and the scoring check.
    assert np.all((fidelities >= 0.0) & (fidelities <= 1.0))
    assert fidelities[-1] > 1.0 - 1e-5


def test_sweep_points_use_config_samples_per_step(tmp_path):
    # With a CZ step of 50 us on set1 the fidelity peaks between samples,
    # so the maximum over the trace depends on the sample count.
    payload = {
        "preset": "set1",
        "gate": "cz",
        "schedule": {"mode": "equal", "t_mon_us": 50.0},
        "samples_per_step": 40,
        "sweep": {"axes": [{"param": "eta", "values": [0.99]}]},
    }
    path = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    data = [line.split(",") for line in lines if not line.startswith("#")]
    row = dict(zip(data[0], data[1]))

    config = load_config(path)
    direct = run_monitoring_protocol(
        config.program, config.physical_params({"eta": 0.99}),
        config.schedule(), samples_per_step=40)
    assert row["max_fidelity"] == f"{direct.max_fidelity:.12g}"
    assert row["final_fidelity"] == f"{direct.final_fidelity:.12g}"


def test_sweep_over_the_cluster_squeezing_matches_separate_simulate_runs(
        tmp_path, monkeypatch):
    # With r_cluster_db the last (fastest) axis, consecutive points never
    # share a cluster, but the run cache holds both: one build per distinct
    # (pattern, r_cluster_db).
    built = []
    build_cluster = optomech.build_cluster
    monkeypatch.setattr(optomech, "build_cluster",
                        lambda *args: built.append(args) or build_cluster(*args))
    axes = [{"param": "eta", "values": [1.0, 0.9]},
            {"param": "r_cluster_db", "values": [3.0, 6.0]}]
    path = write_config(tmp_path, dict(BASE, sweep={"axes": axes}))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert len(built) == 2
    lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
    data = [line.split(",") for line in lines if not line.startswith("#")]
    rows = [dict(zip(data[0], row)) for row in data[1:]]
    assert len(rows) == 4
    for k, row in enumerate(rows):
        point = {"eta": float(row["eta"]), "r_cluster_db": float(row["r_cluster_db"])}
        path = write_config(tmp_path, dict(BASE, params=point), f"point{k}.json")
        out = tmp_path / f"point{k}"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        summary = header_of(out / "summary.csv")
        assert row["final_fidelity"] == summary["final_fidelity"]
        assert row["max_fidelity"] == summary["max_fidelity"]


def test_sweep_outputs_are_worker_count_independent(tmp_path):
    payload = dict(BASE)
    payload["schedule"] = {"mode": "equal", "t_mon_us": 2.0}
    payload["sweep"] = {"axes": [
        {"param": "eta", "values": [1.0, 0.9]},
        {"param": "r_post_meas_db", "values": [20.0, 10.0]},
    ]}
    path = write_config(tmp_path, payload)
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out1),
                     "--workers", "1"]) == 0
    assert cli.main(["sweep", "--config", str(path), "--out", str(out2),
                     "--workers", "2"]) == 0
    assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()
    lines = (out1 / "sweep.csv").read_text().strip().splitlines()
    data = [line for line in lines if not line.startswith("#")]
    assert data[0].startswith("eta,r_post_meas_db,final_fidelity")
    assert len(data) == 5  # header plus four grid points


def test_a_gamma_temperature_sweep_builds_one_program_and_one_monitored_channel(
        tmp_path, monkeypatch):
    # The config builds its program once; the four points differ only in
    # their baths, so they share one monitored channel.
    built = []
    named_program = config_module.named_program
    monkeypatch.setattr(config_module, "named_program",
                        lambda name: built.append(name) or named_program(name))
    optomech._step_coefficients.cache_clear()
    optomech._monitored_channel.cache_clear()
    path = write_config(tmp_path, {
        "preset": "set1", "gate": "shear:1",
        "schedule": {"mode": "equal", "t_mon_us": 5.0}, "samples_per_step": 6,
        "sweep": {"axes": [{"param": "gamma_hz", "values": [8.0, 40.0]},
                           {"param": "temperature_k", "values": [1e-3, 5e-3]}]},
    })
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "w1"),
                     "--workers", "1"]) == 0
    assert built == ["shear:1"]
    info = optomech._monitored_channel.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "w2"),
                     "--workers", "2"]) == 0
    assert (tmp_path / "w1" / "sweep.csv").read_bytes() == \
        (tmp_path / "w2" / "sweep.csv").read_bytes()


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, monkeypatch):
    # A fork pool starts every worker it is asked for, so the pool is
    # bounded by the grid and by the CPU count, with the same output.
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    payload = dict(BASE)
    for values, expected_pools in (([1.0, 0.9], [2]), ([0.9], []),
                                   (list(np.linspace(0.5, 1.0, 8)), [3])):
        payload["sweep"] = {"axes": [{"param": "eta", "values": values}]}
        path = write_config(tmp_path, payload)
        outputs = []
        for workers in ("4096", "1"):
            out = tmp_path / f"w{workers}-{len(values)}"
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--workers", workers]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert pools == expected_pools
        assert outputs[0] == outputs[1]
        pools.clear()


def blas_threads(_=None) -> list:
    """The thread count of each loaded OpenBLAS, read by its own getter."""
    return [get_threads() for _, get_threads in cli._openblas_threads()]


def worker_threads(_=None) -> tuple:
    """A process's BLAS thread counts, and its thread count where ``/proc``
    lists it (else None)."""
    tasks = Path("/proc/self/task")
    return blas_threads(), len(list(tasks.iterdir())) if tasks.is_dir() else None


def test_sweep_workers_run_one_blas_thread_and_the_caller_keeps_its_own(tmp_path, monkeypatch):
    # The caller runs two threads per OpenBLAS. The sweep's workers read one
    # each and run no BLAS thread besides their own, and the caller's counts
    # are as they were after a parallel sweep and during a serial one.
    controls = cli._openblas_threads()
    if not controls:
        pytest.skip("no loaded OpenBLAS whose thread count can be read")
    seen = []

    class RecordingPool(ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            seen.extend(super().map(worker_threads, range(4)))
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    payload = dict(BASE)
    payload["sweep"] = {"axes": [{"param": "eta", "values": [1.0, 0.9]}]}
    path = write_config(tmp_path, payload)
    restore, outputs = blas_threads(), []
    try:
        for set_threads, _ in controls:
            set_threads(2)
        for workers in ("2", "1"):
            out = tmp_path / f"w{workers}"
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--workers", workers]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
            assert blas_threads() == [2] * len(controls)
    finally:
        for (set_threads, _), count in zip(controls, restore):
            set_threads(count)
    assert len(seen) == 4
    assert all(counts == [1] * len(controls) and threads in (1, None) for counts, threads in seen)
    assert outputs[0] == outputs[1]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the cores")
def test_importing_the_package_sets_no_blas_thread_count():
    # A fresh process started with two threads per OpenBLAS still has them
    # after the whole package is imported.
    code = ("from mechmbqc import cli, config, dynamics, mbqc, optomech, states\n"
            "print([get() for _, get in cli._openblas_threads()])")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    counts = json.loads(proc.stdout)
    if not counts:
        pytest.skip("no loaded OpenBLAS whose thread count can be read")
    assert counts == [2] * len(counts)


def test_sweep_rejects_a_repeated_axis(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_monitoring_protocol",
                        lambda *args, **kwargs: calls.append(args))
    payload = dict(BASE)
    payload["sweep"] = {"axes": [{"param": "eta", "values": [0.9, 1.0]},
                                 {"param": "eta", "values": [0.5]}]}
    with pytest.raises(ConfigError, match="repeat a parameter"):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    assert cli.main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "s")]) == 2
    assert calls == []


def test_sweep_requires_axes(tmp_path):
    path = write_config(tmp_path, BASE)
    assert cli.main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / "s")]) == 2


def test_optimize_writes_schedule(tmp_path):
    payload = dict(BASE)
    payload["schedule"] = {"mode": "optimized", "resolution_us": 2.0,
                           "max_step_us": 6.0}
    path = write_config(tmp_path, payload)
    out = tmp_path / "opt"
    assert cli.main(["optimize", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "optimize.csv").read_text()
    assert "# optimized_steps_us:" in text
    assert "# trace_monotone: True" in text


def test_oracle_cz_variant(tmp_path):
    payload = dict(BASE, gate="cz")
    path = write_config(tmp_path, payload)
    out = tmp_path / "cz"
    assert cli.main(["oracle", "--config", str(path), "--out", str(out)]) == 0
    text = (out / "oracle.csv").read_text()
    assert "# gate: cz\n" in text
    assert f"# phases: {np.pi / 2:.12g} {np.pi / 2:.12g}\n" in text
    # The CZ dressed by the per-rail Fourier by-product, (f + f) S_CZ.
    assert "# target_matrix: 0 -1 -1 0 1 0 0 0 -1 0 0 -1 0 0 1 0\n" in text


def test_shipped_example_configs_load_and_run_oracle(tmp_path):
    paths = sorted(EXAMPLES.glob("*.json"))
    assert paths
    for path in paths:
        config = load_config(path)
        out = tmp_path / path.stem
        assert cli.main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        header = dict(line[2:].split(": ", 1) for line in
                      (out / "oracle.csv").read_text().splitlines()
                      if line.startswith("# "))
        phases = config.program.pattern.phases
        assert header["gate"] == config.gate
        assert header["phases"] == " ".join(f"{phi:.12g}" for phi in phases)
        assert len(phases) == config.n_steps()
