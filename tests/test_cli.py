"""End-to-end tests of the command-line harness: exit codes, file outputs
and deterministic reproduction."""

import json
from pathlib import Path

import numpy as np
import pytest

from mechmbqc import cli
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
], ids=["samples_per_step", "t_mon_us", "t_mon_us_null", "sweep_values",
        "sweep_axis", "gate", "sweep_count", "gamma_hz_bool", "temperature_k_bool",
        "eta_string", "t_mon_us_bool", "durations_us_bool", "sweep_value_bool",
        "sweep_count_bool", "sweep_count_fraction", "sweep_count_inf"])
def test_wrongly_typed_config_value_exits_with_config_error(tmp_path, capsys, payload):
    with pytest.raises(ConfigError):
        config_from_dict(payload)
    path = write_config(tmp_path, payload)
    for command in ("simulate", "sweep"):
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("value", [0, 1, -3, 2.5])
def test_samples_per_step_must_be_an_integer_of_at_least_two(tmp_path, value):
    with pytest.raises(ConfigError, match="samples_per_step"):
        config_from_dict(dict(BASE, samples_per_step=value))
    path = write_config(tmp_path, dict(BASE, samples_per_step=value))
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2


def test_two_samples_per_step_is_accepted():
    assert config_from_dict(dict(BASE, samples_per_step=2)).samples_per_step == 2


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


def test_missing_config_and_args_give_config_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["simulate"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2
    assert cli.main(["simulate", "--config", str(write_config(tmp_path, BASE)),
                     "--workers", "0"]) == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from mechmbqc.dynamics import PhysicalityError

    def boom(*args, **kwargs):
        raise PhysicalityError(0.0, -1.0)

    monkeypatch.setattr(cli, "run_monitoring_protocol", boom)
    path = write_config(tmp_path, BASE)
    assert cli.main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 3


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
        config.program(), config.physical_params({"eta": 0.99}),
        config.schedule(), samples_per_step=40)
    assert row["max_fidelity"] == f"{direct.max_fidelity:.12g}"
    assert row["final_fidelity"] == f"{direct.final_fidelity:.12g}"


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


def test_sweep_pool_is_no_larger_than_the_grid(tmp_path, monkeypatch):
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
    payload = dict(BASE)
    for values, expected_pools in (([1.0, 0.9], [2]), ([0.9], [])):
        payload["sweep"] = {"axes": [{"param": "eta", "values": values}]}
        path = write_config(tmp_path, payload)
        outputs = []
        for workers in ("1000", "1"):
            out = tmp_path / f"w{workers}-{len(values)}"
            assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                             "--workers", workers]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert pools == expected_pools
        assert outputs[0] == outputs[1]
        pools.clear()


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
        phases = config.program().pattern.phases
        assert header["gate"] == config.gate
        assert header["phases"] == " ".join(f"{phi:.12g}" for phi in phases)
        assert len(phases) == config.n_steps()
