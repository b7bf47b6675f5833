"""Tests for the cavity-resonator model and the stepped monitoring protocol."""

import importlib.util
import itertools
import math
import re
import sys
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy import constants

from mechmbqc import dynamics as dyn
from mechmbqc import mbqc
from mechmbqc import optomech as om
from mechmbqc import states as st

from dataclasses import fields, replace

from faults import fault_samples
from oracles import expm_flow, generic_solve_advance, same_flow


# ---------------------------------------------------------------------------
# thermal occupancy


def test_thermal_occupancy_zero_temperature():
    assert om.thermal_occupancy(2 * np.pi * 11e6, 0.0) == 0.0


def test_thermal_occupancy_reference_point():
    omega = 2 * np.pi * 11e6
    n = om.thermal_occupancy(omega, 1e-3)
    x = constants.hbar * omega / (constants.k * 1e-3)
    assert n == pytest.approx(1.0 / (np.exp(x) - 1.0), rel=1e-12)
    assert 1.3 < n < 1.5


def test_thermal_occupancy_classical_asymptote():
    omega = 2 * np.pi * 11e6
    temperature = 1.0  # n ~ 1900 here, deep in the classical regime
    n = om.thermal_occupancy(omega, temperature)
    classical = constants.k * temperature / (constants.hbar * omega)
    assert n > 50
    assert abs(n - (classical - 0.5)) / n < 0.01


def test_thermal_occupancy_rejects_bad_input():
    with pytest.raises(ValueError):
        om.thermal_occupancy(0.0, 1.0)
    with pytest.raises(ValueError):
        om.thermal_occupancy(1.0, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("argument", ["omega", "temperature_k"])
def test_thermal_occupancy_rejects_non_finite_input(argument, value):
    # NaN passed both checks and gave NaN, an infinite temperature gave inf
    # with a divide-by-zero warning, and an infinite frequency gave 0.
    args = {"omega": 2 * np.pi * 11e6, "temperature_k": 1e-3, argument: value}
    name = "mode frequency" if argument == "omega" else "temperature"
    with pytest.raises(ValueError, match=f"{name} must be"):
        om.thermal_occupancy(**args)


# ---------------------------------------------------------------------------
# parameter sets


def test_preset_set1_values():
    p = om.params_set1()
    assert p.eta == 0.99
    assert p.gamma == pytest.approx(2 * np.pi * 8.0)
    assert p.kappa == pytest.approx(2 * np.pi * 0.33e6)
    assert p.tau == pytest.approx(0.01 * p.kappa)
    assert p.alpha_g == pytest.approx(0.35e6)
    assert p.temperature_k == 1e-3
    assert p.r_post_meas_db == 10.0
    assert p.r_cluster_db == 3.0


def test_preset_set2_values():
    p = om.params_set2()
    assert p.eta == 1.0
    assert p.gamma == 0.0
    assert p.kappa == pytest.approx(2 * np.pi * 0.1e6)
    assert p.tau == 0.0
    assert p.temperature_k == 0.0
    assert p.r_post_meas_db == 20.0


def test_params_validation():
    with pytest.raises(ValueError):
        replace(om.params_set1(), eta=0.0)
    with pytest.raises(ValueError):
        replace(om.params_set1(), gamma=-1.0)
    with pytest.warns(UserWarning, match="sideband"):
        replace(om.params_set1(), kappa=1e9)
    # A negative cluster squeezing used to pass here and fail only when the
    # cluster was built.
    with pytest.raises(ValueError, match="r_cluster_db must be non-negative"):
        replace(om.params_set1(), r_cluster_db=-3.0)
    assert replace(om.params_set1(), r_cluster_db=0.0).r_cluster_db == 0.0
    # A negative post-measurement squeezing used to swap the squeezed
    # quadrature silently.
    with pytest.raises(ValueError, match="r_post_meas_db must be non-negative"):
        replace(om.params_set2(), r_post_meas_db=-10.0)
    assert replace(om.params_set2(), r_post_meas_db=0.0).r_post_meas_db == 0.0


def test_params_have_no_resonator_count():
    # Rates and settings only; the program's pattern sizes the system.
    assert [f.name for f in fields(om.PhysicalParams)] == [
        "eta", "gamma", "kappa", "tau", "alpha_g", "temperature_k",
        "r_post_meas_db", "r_cluster_db", "reset_cavity"]


# NaN first: an unchecked infinite search bound would never return. eta's
# range check already excludes all three.
NON_FINITE = (np.nan, np.inf, -np.inf)


def test_params_store_plain_floats_and_a_bool():
    # A 0-d array, a numpy scalar or an int in a field used to be stored as
    # given, so the params could not be hashed and the run cache, which keys
    # on them, failed the run.
    p = om.params_set1()
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    want = om.run_monitoring_protocol(mbqc.identity_program(), p, sched, samples_per_step=10)
    for changes in ({"temperature_k": np.array(1e-3)}, {"temperature_k": np.float64(1e-3)},
                    {"r_cluster_db": 3}, {"eta": np.float64(0.99)},
                    {"gamma": np.array(p.gamma), "reset_cavity": np.bool_(False)},
                    {"reset_cavity": 0}):
        q = replace(p, **changes)
        assert all(type(getattr(q, f.name)) is float for f in fields(q)[:-1])
        assert type(q.reset_cavity) is bool
        assert q == p and hash(q) == hash(p)
        om._step_coefficients.cache_clear()
        om._cluster_and_reference.cache_clear()
        got = om.run_monitoring_protocol(mbqc.identity_program(), q, sched,
                                         samples_per_step=10)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.fidelities, want.fidelities)
        assert np.array_equal(got.output_state.cov, want.output_state.cov)


@pytest.mark.parametrize("field", ["gamma", "kappa", "tau", "alpha_g", "temperature_k",
                                   "r_post_meas_db", "r_cluster_db"])
def test_params_reject_non_finite_values(field):
    p = om.params_set1()
    for value in NON_FINITE:
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            replace(p, **{field: value})


# ---------------------------------------------------------------------------
# QND step construction


def qnd_step(p, n, node):
    """One QND step's coefficients: the shared ones plus the node's Hamiltonian."""
    shared = om.qnd_coefficients(p, n)
    drift = dyn.add_system_hamiltonian(shared.drift, om.qnd_hamiltonian(p, n, node))
    return dyn.EvolutionCoefficients(drift, shared.diffusion, shared.backaction)


def test_qnd_step_hamiltonian_angle():
    # Every step measures in its node's frame, so the angle is always pi/2:
    # the cavity position couples to the resonator momentum only.
    p = om.params_set2()
    q_cav = 4
    for node in (0, 1):
        h = om.qnd_hamiltonian(p, 2, node)
        assert h[q_cav, 2 * node + 1] == h[2 * node + 1, q_cav] == 2 * p.alpha_g
        assert np.count_nonzero(h) == 2


def test_qnd_step_zero_coupling():
    p = replace(om.params_set2(), alpha_g=0.0)
    assert np.max(np.abs(om.qnd_hamiltonian(p, 2, 0))) == 0.0
    assert np.array_equal(qnd_step(p, 2, 0).drift, om.qnd_coefficients(p, 2).drift)


def test_qnd_step_channel_layout():
    # The channels, read off the coefficients they build: every resonator
    # only decays at gamma / 2 into its own thermal bath (occupancy at
    # (j + 1) * 11 MHz and 1 mK), and only the cavity is monitored.
    p = om.params_set1()
    assert p.temperature_k > 0.0
    coeffs = om.qnd_coefficients(p, 3)
    occupancies = p.occupancies(3)
    assert np.all(occupancies > 0.0)
    q_cav = 6
    for j in range(3):
        block = slice(2 * j, 2 * j + 2)
        assert_allclose(coeffs.drift[block, block], -0.5 * p.gamma * np.eye(2), rtol=1e-14)
        assert_allclose(coeffs.diffusion[block, block],
                        p.gamma * (occupancies[j] + 0.5) * np.eye(2), rtol=1e-14)
        # No entry couples a resonator to another resonator or to the cavity.
        others = np.ones(8, dtype=bool)
        others[block] = False
        for matrix in (coeffs.drift, coeffs.diffusion):
            assert not np.any(matrix[block, others])
            assert not np.any(matrix[others, block])
    assert coeffs.backaction.shape == (8, 2)
    assert not np.any(coeffs.backaction[:q_cav])
    assert np.any(coeffs.backaction[q_cav:])


def test_qnd_hamiltonian_touches_only_the_cavity_and_the_addressed_node():
    p = om.params_set1()
    shared = om.qnd_coefficients(p, 3)
    q_cav = 6
    for node in range(3):
        changed = qnd_step(p, 3, node).drift != shared.drift
        touched = np.zeros((8, 8), dtype=bool)
        touched[q_cav:, 2 * node:2 * node + 2] = True
        touched[2 * node:2 * node + 2, q_cav:] = True
        assert np.any(changed)
        assert not np.any(changed & ~touched)


def test_qnd_step_set2_has_no_dissipation():
    # Without damping or cavity loss the resonators keep no drift and no
    # diffusion, and the cavity's coefficients are the monitored channel's.
    p = om.params_set2()
    coeffs = om.qnd_coefficients(p, 2)
    for matrix in (coeffs.drift, coeffs.diffusion):
        assert not np.any(matrix[:4])
        assert not np.any(matrix[:, :4])
    c_monitored = np.sqrt(p.kappa) * np.eye(2)
    drift, diffusion, backaction = dyn.build_riccati(
        c_monitored, 0.5 * np.eye(2), dyn.homodyne_post_meas_cov(p.r_post_meas_db), p.eta)
    assert_allclose(coeffs.drift[4:, 4:], drift, rtol=1e-14, atol=0.0)
    assert_allclose(coeffs.diffusion[4:, 4:], diffusion, rtol=1e-14, atol=0.0)
    assert_allclose(coeffs.backaction[4:], backaction, rtol=1e-14, atol=0.0)


def test_qnd_step_invalid_resonator():
    with pytest.raises(ValueError):
        om.qnd_hamiltonian(om.params_set2(), 2, 5)


def composed_qnd_step(p, n, node):
    """A QND step's coefficients composed from the dynamics builders, with the
    channels laid out here: the cavity (last mode) decays at kappa into a
    vacuum input homodyned at efficiency eta and loses photons at tau into
    vacuum, and every resonator decays at gamma into its thermal bath."""
    dim = 2 * n + 2
    c_monitored = np.zeros((dim, 2))
    c_monitored[-2:] = np.sqrt(p.kappa) * np.eye(2)
    c_dissipative = np.zeros((dim, dim))
    c_dissipative[-2:, :2] = np.sqrt(p.tau) * np.eye(2)
    c_dissipative[:-2, 2:] = np.sqrt(p.gamma) * np.eye(2 * n)
    baths = st.thermal(n + 1, np.append(0.0, p.occupancies(n))).cov
    a_lyap, d_lyap = dyn.build_lyapunov(c_dissipative, baths)
    a_ricc, d_ricc, backaction = dyn.build_riccati(
        c_monitored, st.vacuum(1).cov, dyn.homodyne_post_meas_cov(p.r_post_meas_db), p.eta)
    drift = dyn.add_system_hamiltonian(a_lyap + a_ricc, om.qnd_hamiltonian(p, n, node))
    return dyn.EvolutionCoefficients(drift, d_lyap + d_ricc, backaction)


PREPARED_PROGRAMS = {
    "identity": mbqc.identity_program(),
    "fourier": mbqc.fourier_program(),
    "shear2.5": mbqc.shear_program(2.5),
    "cz": mbqc.cz_program(),
}


@pytest.mark.parametrize("preset", ["set1", "set2"])
@pytest.mark.parametrize("gate", sorted(PREPARED_PROGRAMS))
def test_prepared_steps_equal_the_per_step_qnd_coefficients(gate, preset):
    # The run's steps share one build of the channels and add each node's
    # Hamiltonian to its drift; that is the per-step composition of the
    # dynamics builders bit for bit.
    program = PREPARED_PROGRAMS[gate]
    p = {"set1": om.params_set1, "set2": om.params_set2}[preset]()
    protocol = om._prepare(program, p)
    n = program.pattern.graph.n_nodes
    measured = program.pattern.measured
    assert len(protocol.steps) == len(measured)
    for coeffs, node in zip(protocol.steps, measured):
        want = composed_qnd_step(p, n, node)
        assert np.array_equal(coeffs.drift, want.drift)
        assert np.array_equal(coeffs.diffusion, want.diffusion)
        assert np.array_equal(coeffs.backaction, want.backaction)
        assert coeffs.propagator.rate == want.propagator.rate


def test_qnd_step_label_permutation_equivariance():
    # At uniform bath occupancy (zero temperature) the resonators differ
    # only in their labels, so relabeling the addressed one conjugates every
    # coefficient matrix by the same mode permutation, and all downstream
    # fidelity traces are label-invariant.
    p = replace(om.params_set1(), temperature_k=0.0)
    perm = [2, 0, 1]  # new index -> old index
    n = 4  # three resonators plus cavity; cavity stays last
    pmat = np.zeros((2 * n, 2 * n))
    for new, old in enumerate(perm):
        pmat[2 * new : 2 * new + 2, 2 * old : 2 * old + 2] = np.eye(2)
    pmat[6:, 6:] = np.eye(2)

    addressed_old = 1
    addressed_new = perm.index(addressed_old)
    coeffs = qnd_step(p, 3, addressed_old)
    coeffs_p = qnd_step(p, 3, addressed_new)
    assert_allclose(coeffs_p.drift, pmat @ coeffs.drift @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.diffusion, pmat @ coeffs.diffusion @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.bbt, pmat @ coeffs.bbt @ pmat.T, atol=1e-12)


def test_one_params_serves_every_resonator_count():
    # Resonator j runs at (j + 1) * 11 MHz whatever the count, so the
    # coefficients of a four-resonator system are a five's without its last
    # resonator.
    p = om.params_set1()
    occupancies = {n: p.occupancies(n) for n in (4, 5)}
    assert occupancies[4].tolist() == occupancies[5][:4].tolist()
    assert occupancies[5].tolist() == [
        om.thermal_occupancy(2 * np.pi * 11e6 * (j + 1), p.temperature_k) for j in range(5)]
    assert occupancies[5][0] == pytest.approx(1.438, abs=1e-3)
    coeffs = {n: om.qnd_coefficients(p, n) for n in (4, 5)}
    assert_allclose(np.diag(coeffs[5].diffusion)[:10],
                    p.gamma * np.repeat(occupancies[5] + 0.5, 2), rtol=1e-14)
    keep = np.r_[0:8, 10:12]  # five resonators and the cavity, without resonator 4
    for name in ("drift", "diffusion"):
        assert np.array_equal(getattr(coeffs[5], name)[np.ix_(keep, keep)],
                              getattr(coeffs[4], name))
    assert np.array_equal(coeffs[5].backaction[keep], coeffs[4].backaction)


@pytest.mark.parametrize("program", [mbqc.cz_program(), mbqc.identity_program()],
                         ids=["cz-4-nodes", "identity-5-nodes"])
def test_prepare_passes_the_params_through(program):
    p = om.params_set1()
    protocol = om._prepare(program, p)
    assert protocol.params is p
    assert protocol.initial_cov().shape == (2 * program.pattern.graph.n_nodes + 2,) * 2


def test_sideband_warning_is_raised_once_when_the_params_are_built():
    with pytest.warns(UserWarning, match="sideband") as record:
        p = replace(om.params_set1(), kappa=om.BASE_MECH_FREQUENCY)
    assert len(record) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        om._prepare(mbqc.cz_program(), p)


def test_sideband_warning_names_the_caller():
    # It used to name the dataclass-generated __init__ ("<string>:12").
    values = {f.name: getattr(om.params_set1(), f.name) for f in fields(om.PhysicalParams)}
    values["kappa"] = 2 * np.pi * 20e6
    with pytest.warns(UserWarning, match="sideband") as record:
        om.PhysicalParams(**values)
    assert len(record) == 1
    assert record[0].filename == __file__


# ---------------------------------------------------------------------------
# monitoring protocol


def test_protocol_is_deterministic():
    p = om.params_set2()
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    res1 = om.run_monitoring_protocol(mbqc.shear_program(1.0), p, sched,
                                      samples_per_step=10)
    res2 = om.run_monitoring_protocol(mbqc.shear_program(1.0), p, sched,
                                      samples_per_step=10)
    assert_allclose(res1.fidelities, res2.fidelities, rtol=0, atol=0)
    assert_allclose(res1.output_state.cov, res2.output_state.cov, rtol=0, atol=0)


def test_protocol_fidelities_in_range_and_rising_to_high_values():
    p = om.params_set2()
    sched = om.MonitoringSchedule.equal(20e-6, 4)
    res = om.run_monitoring_protocol(mbqc.shear_program(1.0), p, sched,
                                     samples_per_step=12)
    assert np.all(res.fidelities >= 0.0)
    assert np.all(res.fidelities <= 1.0)
    assert res.final_fidelity > 0.99
    assert res.reference_state.is_pure(atol=1e-7)
    assert res.output_state.n_modes == 1


@pytest.mark.parametrize("samples", [0, 1, -3, 2.5, True, np.int64(1), np.bool_(True)])
def test_protocol_rejects_a_bad_sample_count(samples):
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    with pytest.raises(ValueError, match="samples_per_step"):
        om.run_monitoring_protocol(mbqc.identity_program(), om.params_set2(), sched,
                                   samples_per_step=samples)


def test_protocol_takes_a_numpy_integer_sample_count():
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    runs = [om.run_monitoring_protocol(mbqc.identity_program(), om.params_set2(), sched,
                                       samples_per_step=samples)
            for samples in (20, np.int64(20))]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].fidelities, runs[1].fidelities)


def test_protocol_cz_runs_two_steps():
    p = om.params_set2()
    sched = om.MonitoringSchedule.equal(15e-6, 2)
    res = om.run_monitoring_protocol(mbqc.cz_program(), p, sched,
                                     samples_per_step=10)
    assert res.output_state.n_modes == 2
    assert len(res.step_slices) == 2
    assert res.final_fidelity > 0.95


def test_protocol_schedule_length_must_match():
    p = om.params_set2()
    with pytest.raises(ValueError, match="steps"):
        om.run_monitoring_protocol(mbqc.shear_program(1.0), p,
                                   om.MonitoringSchedule.equal(1e-6, 2))


def test_protocol_rejects_a_pattern_with_fewer_phases_than_measurements():
    # One angle for four measured nodes would leave three of them unrotated
    # in the pattern's frame, so no such pattern, and no protocol, is built.
    with pytest.raises(ValueError, match="1 phases for 4 measured modes"):
        mbqc.MeasurementPattern(st.GraphSpec.linear(5), (0,), (0, 1, 2, 3),
                                (np.pi / 2.0,), (4,))


def test_protocol_frozen_cluster_without_drive_or_loss():
    # alpha_g = 0 and no losses: the mechanical covariance cannot move.
    p = replace(om.params_set2(), alpha_g=0.0)
    sched = om.MonitoringSchedule.equal(5e-6, 4)
    res = om.run_monitoring_protocol(mbqc.identity_program(), p, sched,
                                     samples_per_step=6, keep_trajectories=True)
    first = res.trajectories[0].covs[0][:10, :10]
    last = res.trajectories[-1].covs[-1][:10, :10]
    assert_allclose(last, first, atol=1e-9)


def test_protocol_measured_quadrature_variance_non_increasing_set2():
    p = om.params_set2()
    prog = mbqc.shear_program(1.0)
    sched = om.MonitoringSchedule.equal(10e-6, 4)
    res = om.run_monitoring_protocol(prog, p, sched, samples_per_step=30,
                                     keep_trajectories=True)
    phases = prog.pattern.phases
    for k, traj in enumerate(res.trajectories):
        d = np.array([np.cos(phases[k]), np.sin(phases[k])])
        variances = [d @ cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] @ d
                     for cov in traj.covs]
        assert np.all(np.diff(variances) <= 1e-10)


def test_cavity_reset_option_changes_later_steps():
    p = replace(om.params_set1(), reset_cavity=True)
    sched = om.MonitoringSchedule.equal(2e-6, 4)
    res_reset = om.run_monitoring_protocol(mbqc.identity_program(), p, sched,
                                           samples_per_step=6)
    res_plain = om.run_monitoring_protocol(
        mbqc.identity_program(), replace(p, reset_cavity=False), sched,
        samples_per_step=6)
    assert not np.allclose(res_reset.output_state.cov, res_plain.output_state.cov)


@pytest.mark.parametrize("program", [
    mbqc.identity_program(), mbqc.shear_program(3.0), mbqc.cz_program(),
], ids=["identity", "shear3", "cz"])
def test_protocol_starts_from_the_pattern_cluster_and_scores_against_projective_run(program):
    p = om.params_set1()
    r_db = p.r_cluster_db
    n_steps = len(program.pattern.phases)
    res = om.run_monitoring_protocol(program, p,
                                     om.MonitoringSchedule.equal(2e-6, n_steps),
                                     samples_per_step=4, keep_trajectories=True)
    graph, frame = program.pattern.graph, program.pattern.frame
    n = 2 * graph.n_nodes
    cluster = st.build_cluster(graph, r_db)
    # The run starts from the cluster rotated into the measurement frame, and
    # its trajectories come back in the lab frame.
    start = om._prepare(program, p).initial_cov()
    assert np.array_equal(start[:n, :n], st.GaussianState(frame @ cluster.cov @ frame.T).cov)
    assert_allclose(res.trajectories[0].covs[0][:n, :n], cluster.cov, rtol=0, atol=1e-15)
    inp = st.squeeze_momentum(st.vacuum(1), 0, r_db)
    projective = mbqc.run_projective(program, [inp] * len(program.pattern.inputs), r_db)
    assert np.array_equal(res.reference_state.cov, projective.cov)


def test_consecutive_runs_of_one_program_share_the_cluster_and_reference():
    # Two constructions of one program: the pattern is the cache key, by value.
    runs = [(mbqc.shear_program(1.0), replace(om.params_set1(), gamma=gamma,
                                               temperature_k=temperature_k))
            for gamma, temperature_k in ((2 * np.pi * 8.0, 1e-3), (2 * np.pi * 40.0, 5e-3))]
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    shared = [om.run_monitoring_protocol(program, p, sched, samples_per_step=10)
              for program, p in runs]
    assert shared[0].reference_state is shared[1].reference_state
    assert not np.array_equal(shared[0].fidelities, shared[1].fidelities)
    for (program, p), res in zip(runs, shared):
        om._cluster_and_reference.cache_clear()
        fresh = om.run_monitoring_protocol(program, p, sched, samples_per_step=10)
        assert fresh.reference_state is not res.reference_state
        assert np.array_equal(fresh.reference_state.cov, res.reference_state.cov)
        assert np.array_equal(fresh.times, res.times)
        assert np.array_equal(fresh.fidelities, res.fidelities)
        assert np.array_equal(fresh.output_state.cov, res.output_state.cov)


def test_runs_on_one_params_share_the_step_coefficients(monkeypatch):
    # The key is (params, node count, measured nodes), by value: identity and
    # Fourier measure the same chain, CZ other nodes of another graph.
    p = om.params_set1()
    built = []
    qnd_coefficients = om.qnd_coefficients
    monkeypatch.setattr(om, "qnd_coefficients",
                        lambda *args: built.append(args) or qnd_coefficients(*args))
    steps = [om._prepare(program, params).steps for program, params in (
        (mbqc.identity_program(), p), (mbqc.fourier_program(), om.params_set1()),
        (mbqc.cz_program(), p), (mbqc.identity_program(), replace(p, gamma=0.0)))]
    assert steps[0] is steps[1]
    assert len(built) == 3


def test_step_coefficients_key_on_the_fields_they_read():
    # Neither the cluster squeezing nor the cavity reset enters a step's
    # coefficients, so params that differ only there share one entry; every
    # field the coefficients read is part of the key.
    om._step_coefficients.cache_clear()
    p = om.params_set1()
    program = mbqc.identity_program()
    variants = (p, replace(p, r_cluster_db=6.0), replace(p, reset_cavity=True))
    protocols = [om._prepare(program, q) for q in variants]
    info = om._step_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert all(protocol.steps is protocols[0].steps for protocol in protocols)
    assert all(protocol.params is q for protocol, q in zip(protocols, variants))
    for name, value in (("eta", 0.9), ("gamma", 1.0), ("kappa", 2e6), ("tau", 1e4),
                        ("alpha_g", 1e5), ("temperature_k", 2e-3), ("r_post_meas_db", 5.0)):
        assert om._prepare(program, replace(p, **{name: value})).steps is not protocols[0].steps
    assert om._step_coefficients.cache_info().misses == 8
    # A run that hits another run's entry gives the bits of a fresh build.
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    for q in variants[1:]:
        om._prepare(program, p)
        shared = om.run_monitoring_protocol(program, q, sched, samples_per_step=10)
        om._step_coefficients.cache_clear()
        fresh = om.run_monitoring_protocol(program, q, sched, samples_per_step=10)
        assert np.array_equal(shared.times, fresh.times)
        assert np.array_equal(shared.fidelities, fresh.fidelities)
        assert np.array_equal(shared.output_state.cov, fresh.output_state.cov)


def test_the_monitored_channel_is_built_once_per_kappa_eta_and_squeezing():
    # The baths (gamma, temperature, tau) are laid out per call; the monitored
    # channel, which reads none of them, comes from its run cache, read-only.
    om._monitored_channel.cache_clear()
    p = om.params_set1()
    for q in (p, replace(p, gamma=0.0), replace(p, temperature_k=5e-3), replace(p, tau=0.0)):
        om.qnd_coefficients(q, 5)
    info = om._monitored_channel.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    for q in (replace(p, kappa=2 * p.kappa), replace(p, eta=0.5),
              replace(p, r_post_meas_db=3.0)):
        om.qnd_coefficients(q, 5)
    om.qnd_coefficients(p, 4)
    assert om._monitored_channel.cache_info().misses == 5
    parts = om._monitored_channel(p.kappa, p.eta, p.r_post_meas_db, 5)
    c_monitored = np.zeros((12, 2))
    c_monitored[10:] = np.sqrt(p.kappa) * np.eye(2)
    want = dyn.build_riccati(c_monitored, st.vacuum(1).cov,
                             dyn.homodyne_post_meas_cov(p.r_post_meas_db), p.eta)
    for part, w in zip(parts, want, strict=True):
        assert not part.flags.writeable
        assert part.tobytes() == w.tobytes()


@pytest.mark.parametrize("program", [mbqc.shear_program(2.5), mbqc.cz_program()],
                         ids=["shear2.5", "cz"])
def test_a_pattern_built_from_lists_is_the_tuple_pattern(program):
    # Node roles given as lists used to be stored as lists, and every run of
    # such a pattern raised "unhashable type: 'list'" from the run cache.
    tuples = program.pattern
    pattern = mbqc.MeasurementPattern(tuples.graph, [np.int64(n) for n in tuples.inputs],
                                      list(tuples.measured), list(tuples.phases),
                                      list(tuples.outputs))
    assert pattern == program.pattern and hash(pattern) == hash(program.pattern)
    for name in ("inputs", "measured", "outputs"):
        assert type(getattr(pattern, name)) is tuple
        assert all(type(node) is int for node in getattr(pattern, name))
    assert all(type(phi) is float for phi in pattern.phases)
    p = om.params_set2()
    sched = om.MonitoringSchedule.equal(3e-6, len(pattern.measured))
    want = om.run_monitoring_protocol(program, p, sched, samples_per_step=10)
    om._step_coefficients.cache_clear()
    om._cluster_and_reference.cache_clear()
    got = om.run_monitoring_protocol(mbqc.GateProgram(pattern, program.target, "lists"),
                                     p, sched, samples_per_step=10)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.fidelities, want.fidelities)
    assert np.array_equal(got.output_state.cov, want.output_state.cov)


def test_threads_sharing_the_run_caches_get_the_serial_results():
    # Four threads run three programs on one preset, each on the same cached
    # propagators, while the interpreter switches threads every microsecond.
    # Scratch shared by the propagator's samples got most such runs wrong.
    p = om.params_set1()
    runs = [(program, om.MonitoringSchedule.equal(t_mon, len(program.pattern.measured)))
            for program, t_mon in ((mbqc.identity_program(), 8e-6),
                                   (mbqc.shear_program(2.5), 11e-6),
                                   (mbqc.cz_program(), 14e-6))]
    serial = [om.run_monitoring_protocol(program, p, sched, samples_per_step=24)
              for program, sched in runs]
    om._step_coefficients.cache_clear()
    om._cluster_and_reference.cache_clear()

    def worker(k):
        order = runs[k % 3:] + runs[:k % 3]
        return [[om.run_monitoring_protocol(program, p, sched, samples_per_step=24)
                 for program, sched in order] for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(worker, range(4), timeout=300))
    finally:
        sys.setswitchinterval(switch)
    for k, rounds in enumerate(threaded):
        want = serial[k % 3:] + serial[:k % 3]
        for results in rounds:
            for got, res in zip(results, want):
                assert np.array_equal(got.times, res.times)
                assert np.array_equal(got.fidelities, res.fidelities)
                assert np.array_equal(got.output_state.cov, res.output_state.cov)


def test_run_caches_stay_within_their_bound():
    # More distinct params and cluster squeezings than the bound: each cache
    # keeps the most recent RUN_CACHE_SIZE keys, and every propagator keeps
    # the flow of one interval length, the last it used.
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    program = mbqc.identity_program()
    protocols = []
    for k in range(om.RUN_CACHE_SIZE + 3):
        p = replace(om.params_set2(), gamma=2 * np.pi * k, r_cluster_db=3.0 + k)
        om.run_monitoring_protocol(program, p, sched, samples_per_step=20)
        protocols.append(om._prepare(program, p))
    for cache in (om._step_coefficients, om._cluster_and_reference):
        assert cache.cache_info().currsize == om.RUN_CACHE_SIZE
    assert om._prepare(program, p).steps is protocols[-1].steps
    for protocol in protocols:
        for coeffs in protocol.steps:
            propagator = coeffs.propagator
            assert propagator._last[0] is not None
            propagator.advance(protocol.initial_cov(), 1e-6)
            flow = propagator._last[1]
            propagator.advance(protocol.initial_cov(), 1e-6)
            assert propagator._last[0] == 1e-6 and propagator._last[1] is flow


# Final and maximum fidelities of short runs, recorded before the protocol
# engine was shared between the protocol runner and the optimizer; the
# refactoring kept every output bit-identical.
PINNED_RUNS = {
    "set2-shear1-3us": (mbqc.shear_program(1.0), om.params_set2(), 3e-6,
                        0.8612953779453969, 0.8612953779453969),
    "set1-cz-reset-60us": (mbqc.cz_program(),
                           replace(om.params_set1(), reset_cavity=True), 60e-6,
                           0.9747570265382448, 0.9751314257559869),
    "set1-fourier-10mK-40us": (mbqc.fourier_program(),
                               replace(om.params_set1(), temperature_k=10e-3),
                               40e-6, 0.9389282262569298, 0.9393171954012304),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_protocol_pinned_fidelities(name):
    program, params, t_mon, final, best = PINNED_RUNS[name]
    sched = om.MonitoringSchedule.equal(t_mon, len(program.pattern.phases))
    res = om.run_monitoring_protocol(program, params, sched, samples_per_step=10)
    assert res.final_fidelity == pytest.approx(final, rel=0, abs=1e-12)
    assert res.max_fidelity == pytest.approx(best, rel=0, abs=1e-12)


# t (1 - F) on set2 at a step length t of 10 s, one value per program.
LONG_STEP_LIMITS = {"identity": 8.93783e-8, "shear:1": 1.11233e-7, "fourier": 1.57915e-7,
                    "shear:2.5": 1.36966e-7, "cz": 1.43484e-7}


@pytest.mark.parametrize("gate", sorted(LONG_STEP_LIMITS))
def test_long_steps_lose_fidelity_as_one_over_the_step_length(gate):
    # Lossless and cold, a long step leaves 1 - F falling as 1/t: t (1 - F)
    # varies by under 0.05% from 10 ms to 10 s. Steps coupled to X_phi, not
    # to p in the node's frame, would lose physicality beyond about 0.05 s.
    program = mbqc.named_program(gate)
    products = []
    for t_mon in (1e-2, 1e-1, 1.0, 10.0):
        sched = om.MonitoringSchedule.equal(t_mon, len(program.pattern.measured))
        res = om.run_monitoring_protocol(program, om.params_set2(), sched, samples_per_step=2)
        products.append(t_mon * (1.0 - res.final_fidelity))
    assert max(products) / min(products) - 1.0 < 1e-3
    assert products[-1] == pytest.approx(LONG_STEP_LIMITS[gate], rel=1e-4)


@pytest.mark.parametrize("temperature_k, durations, final", [
    (1e-3, (2e-05, 2e-05, 2e-05, 2e-05), 0.9821668486207664),
    (10e-3, (1.6e-05, 9.999999999999999e-06, 2e-05, 2e-05), 0.9661242176763669),
], ids=["1mK", "10mK"])
def test_optimizer_pinned_schedule(temperature_k, durations, final):
    p = replace(om.params_set1(), temperature_k=temperature_k)
    sched, res = om.optimize_schedule(mbqc.identity_program(), p,
                                      time_resolution=2e-6,
                                      max_step_duration=20e-6)
    assert sched.durations == durations
    assert res.final_fidelity == pytest.approx(final, rel=0, abs=1e-12)
    assert res.max_fidelity == pytest.approx(final, rel=0, abs=1e-12)


def test_optimizer_guards_physicality_without_an_eigensolve(monkeypatch):
    # Every guarded block of the search is physical, so the Cholesky
    # certificate decides each one. The only eigensolves left are one per
    # propagator (its growth rate) and the reference's purity spectrum.
    counts = {"eigvals": 0, "propagators": 0}
    eigvals, init = np.linalg.eigvals, dyn.Propagator.__init__

    def counting_eigvals(matrix):
        counts["eigvals"] += 1
        return eigvals(matrix)

    def counting_init(self, coeffs):
        counts["propagators"] += 1
        init(self, coeffs)

    monkeypatch.setattr(st.np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(dyn.Propagator, "__init__", counting_init)
    om.optimize_schedule(mbqc.identity_program(), om.params_set1(),
                         time_resolution=2e-6, max_step_duration=200e-6)
    assert counts["propagators"] == 4
    assert counts["eigvals"] == counts["propagators"] + 1


# One monitored run whose steps each lay 8 chunks of about 3 samples.
GUARD_CASE = (mbqc.identity_program(), om.params_set1(),
              om.MonitoringSchedule.equal(20e-6, 4), 24)


def run_guard_case():
    program, p, schedule, samples = GUARD_CASE
    return om.run_monitoring_protocol(program, p, schedule, samples,
                                      keep_trajectories=True)


def frame_trajectories(run):
    """The trajectories ``run()`` propagates, in the measurement frame in
    which it propagates them: they come back rotated to the lab frame, and
    a fault matched on a covariance inside the run must match this one."""
    recorded, sample_step = [], om.sample_step

    def spy(*args):
        recorded.append(sample_step(*args))
        return recorded[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(om, "sample_step", spy)
        run()
    return recorded


def sample_in_chunk_3_of_step_2():
    """The clean trajectory of GUARD_CASE's second step, in the measurement
    frame, and the index of one of its samples that falls in the step's
    third chunk."""
    _, _, schedule, _ = GUARD_CASE
    traj = frame_trajectories(run_guard_case)[1]
    t0, chunk = traj.times[0], schedule.durations[1] / dyn.CHUNKS_PER_STEP
    index = int(np.searchsorted(traj.times, t0 + 2.5 * chunk))
    assert t0 + 2.0 * chunk < traj.times[index] <= t0 + 3.0 * chunk + 1e-15
    return traj, index


def test_a_clean_step_solves_each_computed_sample_once(monkeypatch):
    # A 120-sample set1 step computes its 8 chunk ends, one chain, and then
    # every chunk interior in lockstep: one dgesv per sample, and one stacked
    # step per interval of the interiors.
    protocol = om._prepare(mbqc.identity_program(), om.params_set1())
    dgesv, step, inside, solves, stacks = dyn.dgesv, dyn.Propagator._step, [], [], []

    def counting_dgesv(*args):
        solves.extend(inside)
        return dgesv(*args)

    def counting_step(self, sigmas, flow, work, out):
        stacks.append(len(out) if np.ndim(out) == 3 else 1)
        inside.append(1)
        try:
            return step(self, sigmas, flow, work, out)
        finally:
            inside.pop()

    monkeypatch.setattr(dyn, "dgesv", counting_dgesv)
    monkeypatch.setattr(dyn.Propagator, "_step", counting_step)
    traj = dyn.sample_step(protocol.initial_cov(), protocol.steps[0], 40e-6, 120, 0.0)
    assert len(solves) == sum(stacks) == len(traj) - 1 == 112
    assert stacks[:dyn.CHUNKS_PER_STEP] == [1] * dyn.CHUNKS_PER_STEP
    assert stacks[dyn.CHUNKS_PER_STEP:] == [dyn.CHUNKS_PER_STEP] * 13


def test_protocol_guards_each_step_once(monkeypatch):
    guarded = []
    check = dyn.check_samples

    def spy(times, covs):
        guarded.append(len(times))
        check(times, covs)

    monkeypatch.setattr(dyn, "check_samples", spy)
    result = run_guard_case()
    assert guarded == [s.stop - s.start - 1 for s in result.step_slices]


def test_protocol_reports_a_non_finite_sample_at_its_time(monkeypatch):
    # NaN from one sample of chunk 3 of step 2 on: the step's one guard
    # reports that sample, and the NaN raises no warning on its way through
    # the later solves and dt suggestions of the step.
    traj, index = sample_in_chunk_3_of_step_2()
    fault_samples(monkeypatch, traj.covs, {index: lambda s: np.full_like(s, np.nan)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dyn.PhysicalityError) as info:
            run_guard_case()
    assert info.value.t == traj.times[index]
    assert info.value.nu_min == float("-inf")


def test_protocol_reports_an_unphysical_sample_before_a_later_failed_solve(
        monkeypatch):
    traj, index = sample_in_chunk_3_of_step_2()

    def singular(sigma):
        raise np.linalg.LinAlgError("Singular matrix")

    # The solve fails later, inside the fifth chunk after that sample's, the
    # last chunk of the same step.
    later = index + 10
    chunk = GUARD_CASE[2].durations[1] / dyn.CHUNKS_PER_STEP
    assert traj.times[0] + 7.0 * chunk < traj.times[later] < traj.times[-1]
    fault_samples(monkeypatch, traj.covs,
                  {index: lambda s: 0.3 * np.eye(len(s)), later: singular})
    with pytest.raises(dyn.PhysicalityError) as info:
        run_guard_case()
    assert info.value.t == traj.times[index]
    assert info.value.nu_min == pytest.approx(0.3)


def test_a_failed_solve_of_a_chunk_end_after_an_unphysical_sample_reports_that_sample(
        monkeypatch):
    # A step's chunk ends are computed before any chunk's interior: the solve
    # of the end of chunk 6 fails first, then a sample inside chunk 3 comes
    # out unphysical. That sample is earlier in time, so it is reported.
    traj, index = sample_in_chunk_3_of_step_2()
    t0, chunk = traj.times[0], GUARD_CASE[2].durations[1] / dyn.CHUNKS_PER_STEP
    assert traj.times[index] < t0 + 3.0 * chunk
    end_6 = int(np.searchsorted(traj.times, t0 + 6.0 * chunk - 1e-15))
    assert abs(traj.times[end_6] - (t0 + 6.0 * chunk)) < 1e-15
    fired = []

    def singular(sigma):
        fired.append("end")
        raise np.linalg.LinAlgError("Singular matrix")

    def unphysical(sigma):
        fired.append("interior")
        return 0.3 * np.eye(len(sigma))

    fault_samples(monkeypatch, traj.covs, {end_6: singular, index: unphysical})
    with pytest.raises(dyn.PhysicalityError) as info:
        run_guard_case()
    assert fired == ["end", "interior"]
    assert info.value.t == traj.times[index]
    assert info.value.nu_min == pytest.approx(0.3)


@pytest.mark.parametrize("unphysical_before", [False, True], ids=["alone", "after"])
def test_a_non_finite_chunk_end_is_reported_after_the_samples_before_it(
        monkeypatch, unphysical_before):
    # NaN from the end of chunk 3 of step 2 on: every later chunk start is
    # NaN, so the step's grid-rule SVD fails. The chunks before that end are
    # still filled and guarded first, with no warning from the NaN: that end
    # is reported, or an unphysical sample inside chunk 3 before it.
    traj, index = sample_in_chunk_3_of_step_2()
    t0, chunk = traj.times[0], GUARD_CASE[2].durations[1] / dyn.CHUNKS_PER_STEP
    end_3 = int(np.searchsorted(traj.times, t0 + 3.0 * chunk - 1e-15))
    assert index < end_3 and abs(traj.times[end_3] - (t0 + 3.0 * chunk)) < 1e-15
    svd_failures, svd = [], np.linalg.svd
    faults = {end_3: lambda s: np.full_like(s, np.nan)}
    if unphysical_before:
        faults[index] = lambda s: 0.3 * np.eye(len(s))

    def recording_svd(*args, **kwargs):
        try:
            return svd(*args, **kwargs)
        except np.linalg.LinAlgError:
            svd_failures.append(len(args[0]))
            raise

    fault_samples(monkeypatch, traj.covs, faults)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dyn.PhysicalityError) as info:
            run_guard_case()
    assert svd_failures == [dyn.CHUNKS_PER_STEP]
    if unphysical_before:
        assert info.value.t == traj.times[index]
        assert info.value.nu_min == pytest.approx(0.3)
    else:
        assert info.value.t == traj.times[end_3]
        assert info.value.nu_min == float("-inf")


def counting_fidelity_to(monkeypatch):
    """Record the stack size of every ``fidelity_to`` call the protocol makes."""
    calls = []

    def counting(covs, reference):
        calls.append(len(covs))
        return st.fidelity_to(covs, reference)

    monkeypatch.setattr(om, "fidelity_to", counting)
    return calls


def test_a_monitored_run_is_scored_in_one_call(monkeypatch):
    calls = counting_fidelity_to(monkeypatch)
    result = run_guard_case()
    assert calls == [len(result.times)]


def test_the_search_builds_its_increment_flows_in_one_stack(monkeypatch):
    # Every step's increment flow is doubled in one stack before the search,
    # so the search doubles no flow alone. With that build a no-op, the
    # search doubles each step's flow alone, and the results are the same.
    program = mbqc.identity_program()
    doubled_map, monitor, replaying, runs = dyn._doubled_map, om._monitor, [], []

    def spy(phi, d, doublings):
        if not replaying:
            runs[-1][1].append(np.ndim(phi))
        return doubled_map(phi, d, doublings)

    def replay(*args):
        replaying.append(True)
        try:
            return monitor(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(dyn, "_doubled_map", spy)
    monkeypatch.setattr(om, "_monitor", replay)
    for prepared in (om.prepare_flows, lambda intervals: None):
        monkeypatch.setattr(om, "prepare_flows", prepared)
        om._step_coefficients.cache_clear()
        runs.append([None, []])
        runs[-1][0] = om.optimize_schedule(program, om.params_set1(), time_resolution=2e-6,
                                           max_step_duration=20e-6)
    ((schedule, got), stacked), ((want_schedule, want), alone) = runs
    assert stacked == [3] and alone == [2] * len(program.pattern.measured)
    assert schedule == want_schedule and same_run(got, want)


def test_the_optimizer_replay_is_scored_in_one_call(monkeypatch):
    calls = counting_fidelity_to(monkeypatch)
    monitor, replays = om._monitor, []

    def spy(*args):
        start = len(calls)
        result = monitor(*args)
        replays.append(calls[start:])
        return result

    monkeypatch.setattr(om, "_monitor", spy)
    _, result = om.optimize_schedule(mbqc.identity_program(), om.params_set1(),
                                     time_resolution=2e-6, max_step_duration=20e-6)
    assert replays == [[len(result.times)]]


@pytest.mark.parametrize("error", [dyn.PhysicalityError(1e-6, 0.3),
                                   np.linalg.LinAlgError("Singular matrix")],
                         ids=["physicality", "linalg"])
def test_an_unphysical_output_is_reported_before_a_later_step_fails(monkeypatch, error):
    # Step 2 leaves an unphysical output block in one of its samples (not the
    # one handed to step 3), then step 3 fails: the earlier fault is the
    # scoring error, as when each step was scored before the next ran.
    sample_step, steps = om.sample_step, []

    def faulty(*args):
        steps.append(args)
        if len(steps) == 3:
            raise error
        traj = sample_step(*args)
        if len(steps) == 2:
            covs = traj.covs.copy()
            covs[1] = 0.3 * np.eye(covs.shape[1])
            traj = dyn.Trajectory(traj.times, covs)
        return traj

    monkeypatch.setattr(om, "sample_step", faulty)
    with pytest.raises(ValueError, match="fidelity input is unphysical"):
        run_guard_case()


def run_short_case(samples_per_step):
    """GUARD_CASE at ``samples_per_step`` samples per step."""
    program, p, schedule, _ = GUARD_CASE
    return om.run_monitoring_protocol(program, p, schedule, samples_per_step,
                                      keep_trajectories=True)


@pytest.mark.parametrize("samples_per_step", [2, 9, 16, 17])
def test_chunks_of_two_samples_evaluate_no_grid_step(monkeypatch, samples_per_step):
    # At up to 16 samples per step a chunk keeps only its end point, so no
    # grid step is suggested; at 17 each step calls its grid rule once and
    # suggests the steps of all its chunks in one SVD call.
    built, svds = [], []
    rule, svd = dyn._grid_steps, np.linalg.svd

    def counting_rule(coeffs, horizon, starts):
        built.append(horizon)
        return rule(coeffs, horizon, starts)

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(dyn, "_grid_steps", counting_rule)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    result = run_short_case(samples_per_step)
    _, _, schedule, _ = GUARD_CASE
    if samples_per_step > 16:
        assert built == [t / dyn.CHUNKS_PER_STEP for t in schedule.durations]
        assert len(svds) == len(schedule.durations)
        assert all(shape[0] == dyn.CHUNKS_PER_STEP for shape in svds)
        return
    assert built == [] and svds == []
    for traj, t_mon in zip(result.trajectories, schedule.durations):
        chunk = t_mon / dyn.CHUNKS_PER_STEP
        assert np.array_equal(traj.times,
                              np.cumsum([traj.times[0]] + [chunk] * dyn.CHUNKS_PER_STEP))


@pytest.mark.parametrize("program", [mbqc.identity_program(), mbqc.cz_program()],
                         ids=["identity", "cz"])
def test_step_ends_do_not_depend_on_the_sample_count(program):
    # Each chunk end comes from the chain of chunk-length flows, whatever
    # grid fills the chunk, so the covariance each step leaves and the final
    # fidelity have the same bits at every sample count.
    p = om.params_set1()
    schedule = om.MonitoringSchedule.equal(20e-6, len(program.pattern.measured))
    seen = {}
    for samples in (2, 9, 17, 60, 120):
        finals = []

        def run():
            finals.append(om.run_monitoring_protocol(program, p, schedule,
                                                     samples).final_fidelity)

        ends = [traj.covs[-1] for traj in frame_trajectories(run)]
        seen[samples] = (np.array(ends).tobytes(), finals[0])
    for samples, got in seen.items():
        assert got == seen[2], samples


@settings(max_examples=40, deadline=None)
@given(n_samples=hst.integers(2, 130), t_mon_us=hst.floats(1.0, 100.0),
       t_offset=hst.floats(0.0, 1e-3))
def test_sample_step_keeps_its_count_its_chunk_ends_and_its_last_covariance(
        n_samples, t_mon_us, t_offset):
    # One set1 step: the step stores at most the chunked count, exactly 9 up
    # to 16 samples; its times rise strictly from t_offset through the chunk
    # ends summed chunk by chunk; and it leaves the covariance of the
    # two-sample run, bit for bit.
    protocol = om._prepare(mbqc.identity_program(), om.params_set1())
    cov, coeffs, t_mon = protocol.initial_cov(), protocol.steps[0], t_mon_us * 1e-6
    traj = dyn.sample_step(cov, coeffs, t_mon, n_samples, t_offset)
    per_chunk = max(2, int(np.ceil(n_samples / dyn.CHUNKS_PER_STEP)))
    assert len(traj) <= 1 + dyn.CHUNKS_PER_STEP * (per_chunk - 1)
    if n_samples <= 16:
        assert len(traj) == dyn.CHUNKS_PER_STEP + 1
    assert traj.times[0] == t_offset
    assert np.all(np.diff(traj.times) > 0.0)
    ends = list(itertools.accumulate([t_offset] + [t_mon / 8] * 8))
    assert set(ends) <= set(traj.times.tolist())
    assert traj.times[-1] == ends[-1]
    two = dyn.sample_step(cov, coeffs, t_mon, 2, t_offset)
    assert traj.covs[-1].tobytes() == two.covs[-1].tobytes()


@pytest.mark.parametrize("n_samples", [2, 120])
def test_sample_step_of_length_0_keeps_its_start_and_a_bad_length_is_rejected(n_samples):
    protocol = om._prepare(mbqc.identity_program(), om.params_set1())
    cov, coeffs = protocol.initial_cov(), protocol.steps[0]
    traj = dyn.sample_step(cov, coeffs, 0.0, n_samples, 5e-6)
    assert traj.times.tolist() == [5e-6]
    assert np.array_equal(traj.covs, cov[None])
    for t_mon in (-1e-6, *NON_FINITE):
        with pytest.raises(ValueError, match="interval h must be finite and non-negative"):
            dyn.sample_step(cov, coeffs, t_mon, n_samples, 0.0)


def test_a_step_makes_one_grid_rule_svd_and_a_flow_per_chunk_grid(monkeypatch):
    # At 120 samples each chunk lays a grid of its own: a step builds at most
    # the chunk's flow and one flow per chunk grid, and suggests all its
    # chunks' grid steps in one SVD.
    svds, flows, per_step = [], [], []
    svd, flow, sample_step = np.linalg.svd, dyn._flow, om.sample_step

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    def counting_flow(*args):
        flows.append(args[-1])
        return flow(*args)

    def spy(*args):
        before = len(svds), len(flows)
        traj = sample_step(*args)
        per_step.append((len(svds) - before[0], len(flows) - before[1]))
        return traj

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(dyn, "_flow", counting_flow)
    monkeypatch.setattr(om, "sample_step", spy)
    run_short_case(120)
    assert len(per_step) == len(GUARD_CASE[2].durations)
    for n_svd, n_flow in per_step:
        assert n_svd == 1
        assert n_flow <= 1 + dyn.CHUNKS_PER_STEP


@pytest.mark.parametrize("samples_per_step", [2, 9, 16])
def test_chunks_of_two_samples_report_a_non_finite_sample_at_its_time(
        monkeypatch, samples_per_step):
    # NaN from the fourth sample of step 2 on: it is reported at that
    # sample's time, with no warning from the later solves of the step.
    traj = frame_trajectories(lambda: run_short_case(samples_per_step))[1]
    assert len(traj) == dyn.CHUNKS_PER_STEP + 1
    fault_samples(monkeypatch, traj.covs, {4: lambda s: np.full_like(s, np.nan)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dyn.PhysicalityError) as info:
            run_short_case(samples_per_step)
    assert info.value.t == traj.times[4]
    assert info.value.nu_min == float("-inf")


def test_monitored_model_propagates_as_a_generic_solve_bit_for_bit():
    # On the QND-step flows of both presets, Propagator.advance equals the
    # same update through np.linalg.solve exactly, in both the Davison-Maki
    # and the interval form, which keeps monitored runs bit-identical to a
    # generic solve.
    for program, p in itertools.product((mbqc.identity_program(), mbqc.cz_program()),
                                        (om.params_set1(), om.params_set2())):
        protocol = om._prepare(program, p)
        for coeffs in protocol.steps:
            sigma = reference = protocol.initial_cov()
            for h in (50e-6 / 119, 50e-6 / 7, 1e-5):
                for _ in range(10):
                    sigma = coeffs.propagator.advance(sigma, h)
                    reference = generic_solve_advance(coeffs.propagator, reference, h)
                    assert np.array_equal(sigma, reference)


def test_monitored_model_samples_as_chained_one_sample_calls_bit_for_bit():
    # On the QND-step flows of both presets, one Propagator.sample call
    # writes the bits of the same samples taken one call at a time.
    for program, p in itertools.product((mbqc.identity_program(), mbqc.cz_program()),
                                        (om.params_set1(), om.params_set2())):
        protocol = om._prepare(program, p)
        for coeffs in protocol.steps:
            for h in (50e-6 / 119, 50e-6 / 7, 1e-5):
                sigma = protocol.initial_cov()
                stack = coeffs.propagator.sample(sigma, h, np.empty((10, *sigma.shape)))
                for cov in stack:
                    sigma = coeffs.propagator.sample(sigma, h, np.empty((1, *sigma.shape)))[0]
                    assert np.array_equal(cov, sigma)


@pytest.mark.parametrize("h", [1e302, 1.7e308])
def test_propagator_advances_an_interval_whose_h_lambda_overflows(monkeypatch, h):
    # At kappa / 2 pi = 10 MHz the rate lambda is about 3.2e7 / s, so
    # h lambda is inf. The halvings then come from the exponents of h and
    # lambda: the exponentiated piece still has 2^-k h lambda in (1/2, 1].
    # The step has long settled, so the result is that of h = 1e4 s. Measured:
    # 1.1e-10 and 5.7e-11 relative apart, while h = 1e4 s and 1e6 s, both
    # finite products, differ by 2.3e-10 (rounding over some 40 doublings).
    p = om.PhysicalParams.from_values(dict(om.PRESETS["set1"], kappa_hz=1e7))
    protocol = om._prepare(mbqc.identity_program(), p)
    propagator = protocol.steps[0].propagator
    assert h * propagator.rate == np.inf
    exponents = []
    expm = dyn._expm

    def recording_expm(scale, matrix, witnesses):
        exponents.append(scale * matrix)
        return expm(scale, matrix, witnesses)

    monkeypatch.setattr(dyn, "_expm", recording_expm)
    sigma = protocol.initial_cov()
    long = propagator.advance(sigma, h)
    (piece,) = exponents
    scale = np.linalg.norm(piece) / np.linalg.norm(propagator.hamiltonian)
    assert 0.5 < scale * propagator.rate <= 1.0
    settled = propagator.advance(sigma, 1e4)
    assert np.all(np.isfinite(long))
    assert np.max(np.abs(long - settled)) <= 5e-10 * np.max(np.abs(settled))


def benchmark_workloads():
    """The benchmark's op streams, ``perfbench/workloads.py``, only read."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def test_protocol_block_flows_are_the_expm_flows_bit_for_bit(monkeypatch, tmp_path):
    # Every interval length of the benchmark's seed-0 protocol block, both
    # presets x the four gates at 120 samples per step, built again through
    # scipy.linalg.expm. Every QND step's H is generic, so with the direct
    # kernels live none of its flows falls back to expm.
    # The run caches start empty, so every propagator of the block is built
    # here, over the patched _flow.
    workloads = benchmark_workloads()
    flow, intervals, fallbacks = dyn._flow, {}, []
    expm = dyn.sla.expm

    def recording_flow(hamiltonian, rate, witnesses, h):
        propagator = types.SimpleNamespace(hamiltonian=hamiltonian, rate=rate,
                                           dim=len(hamiltonian) // 2)
        intervals.setdefault((id(hamiltonian), h), (propagator, witnesses, h))
        return flow(hamiltonian, rate, witnesses, h)

    def counting_expm(matrix):
        fallbacks.append(matrix)
        return expm(matrix)

    monkeypatch.setattr(dyn, "_flow", recording_flow)
    monkeypatch.setattr(dyn.sla, "expm", counting_expm)
    workload = workloads.setup("protocol", workloads.DEFAULT_SEED, tmp_path)
    block = [workload.op(index) for index in range(workload.block_size)]
    assert {(spec["gate"].split(":")[0], spec["preset"]) for spec, *_ in block} == {
        (gate, preset) for gate in workloads.GATES for preset in ("set1", "set2")}
    for op in block:
        workload.run(op)
    monkeypatch.undo()
    assert len(intervals) > 500
    if dyn._expm is dyn._pade_expm:
        assert not fallbacks
    for propagator, witnesses, h in intervals.values():
        got = dyn._flow(propagator.hamiltonian, propagator.rate, witnesses, h)
        assert same_flow(got, expm_flow(propagator, h)), h


def test_sweep_block_prepared_chunk_flows_are_the_expm_flows_bit_for_bit(monkeypatch, tmp_path):
    # The flows a run writes into its propagators' slots before its first
    # step bypass _flow, so they are recorded as they are written: the seed-0
    # sweep block's 2 x 2 points x 4 steps, each step's chunk flow built in
    # one stack.
    workloads = benchmark_workloads()
    prepare, prepared = om.prepare_steps, []

    def recording_prepare(steps):
        steps = list(steps)
        held = [coeffs.propagator._last[1] for coeffs, _ in steps]
        prepare(steps)
        for (coeffs, t_mon), before in zip(steps, held):
            h, flow = coeffs.propagator._last
            if flow is not before:
                assert h == t_mon / dyn.CHUNKS_PER_STEP
                prepared.append((coeffs.propagator, h, flow))

    monkeypatch.setattr(om, "prepare_steps", recording_prepare)
    om._step_coefficients.cache_clear()
    workload = workloads.setup("sweep", workloads.DEFAULT_SEED, tmp_path)
    for index in range(workload.block_size):
        workload.run(workload.op(index))
    workload.cleanup()
    assert len(prepared) == 16 * workload.block_size
    for propagator, h, flow in prepared:
        assert len(flow) == 4 and same_flow(flow, expm_flow(propagator, h)), h


def run_with_and_without_prepared_flows(monkeypatch, run):
    """``run()`` twice on fresh run caches, first with the chunk flows built
    together, then with ``prepare_steps`` a no-op, and the stacks that the
    first run doubled."""
    prepare, doubled_map, stacks, results = om.prepare_steps, dyn._doubled_map, [], []

    def spy(phi, d, doublings):
        if phi.ndim == 3:
            stacks.append((len(phi), doublings))
        return doubled_map(phi, d, doublings)

    monkeypatch.setattr(dyn, "_doubled_map", spy)
    for prepared in (prepare, lambda steps: None):
        monkeypatch.setattr(om, "prepare_steps", prepared)
        om._step_coefficients.cache_clear()
        results.append(run())
    return results, stacks


def same_run(got, want) -> bool:
    """Whether two protocol results agree in every bit of their outputs."""
    return (got.times.tobytes() == want.times.tobytes()
            and got.fidelities.tobytes() == want.fidelities.tobytes()
            and got.output_state.cov.tobytes() == want.output_state.cov.tobytes()
            and len(got.trajectories) == len(want.trajectories)
            and all(g.covs.tobytes() == w.covs.tobytes()
                    for g, w in zip(got.trajectories, want.trajectories)))


@pytest.mark.parametrize("preset", ["set1", "set2"])
@pytest.mark.parametrize("program", [mbqc.shear_program(1.0), mbqc.cz_program()],
                         ids=["chain", "cz"])
@pytest.mark.parametrize("samples", [16, 120])
@pytest.mark.parametrize("reset_cavity", [False, True], ids=["keep", "reset"])
def test_a_run_with_its_chunk_flows_built_together_is_the_same_bit_for_bit(
        monkeypatch, preset, program, samples, reset_cavity):
    p = replace(om.PhysicalParams.from_values(om.PRESETS[preset]), reset_cavity=reset_cavity)
    sched = om.MonitoringSchedule.equal(60e-6, len(program.pattern.measured))
    (got, want), stacks = run_with_and_without_prepared_flows(
        monkeypatch, lambda: om.run_monitoring_protocol(program, p, sched, samples,
                                                        keep_trajectories=True))
    assert same_run(got, want)
    assert [n for n, _ in stacks] == [len(program.pattern.measured)]


def test_a_schedule_of_several_halvings_counts_is_the_same_bit_for_bit(monkeypatch):
    # Chunks of 0.5, 7.5 (twice) and 50 us: no halving, 3 and 6 of them, so
    # one step is left to its miss and the others take two stacks.
    sched = om.MonitoringSchedule((4e-6, 60e-6, 400e-6, 60e-6))
    (got, want), stacks = run_with_and_without_prepared_flows(
        monkeypatch, lambda: om.run_monitoring_protocol(
            mbqc.shear_program(2.0), om.params_set1(), sched, 24, keep_trajectories=True))
    assert same_run(got, want)
    assert sorted(stacks) == [(1, 6), (2, 3)]


def failed_runs_with_and_without_prepared_flows(monkeypatch, run):
    """The error of ``run()``, and what it guarded and scored before it,
    first with the chunk flows built together, then with ``prepare_steps`` a
    no-op."""
    prepare, check, fidelity = om.prepare_steps, dyn.check_samples, om.fidelity_to
    records = []

    def guard(times, covs):
        records[-1][3].append((list(times), covs.tobytes()))
        check(times, covs)

    def score(covs, reference):
        records[-1][4].append(covs.tobytes())
        return fidelity(covs, reference)

    monkeypatch.setattr(dyn, "check_samples", guard)
    monkeypatch.setattr(om, "fidelity_to", score)
    for prepared in (prepare, lambda steps: None):
        monkeypatch.setattr(om, "prepare_steps", prepared)
        om._step_coefficients.cache_clear()
        records.append([None, None, None, [], []])
        with pytest.raises((np.linalg.LinAlgError, ValueError)) as info:
            run()
        error = info.value
        records[-1][:3] = type(error), str(error), getattr(error, "samples_written", None)
    return records


def test_a_singular_solve_in_a_prepared_doubling_surfaces_at_its_step(monkeypatch):
    # Step 2's chunk flow fails its doubling, in the stack and alone: the run
    # raises the error at step 2, after guarding and scoring steps 0 and 1,
    # as it does with no flow built ahead.
    program, p = mbqc.shear_program(1.0), om.params_set1()
    sched = om.MonitoringSchedule.equal(60e-6, 4)
    propagator, h = om._prepare(program, p).steps[2].propagator, 60e-6 / dyn.CHUNKS_PER_STEP
    bad = dyn._expm(math.ldexp(h, -dyn._halvings(h, propagator.rate)),
                    propagator.hamiltonian, propagator._witnesses).tobytes()
    doubled_map, hits = dyn._doubled_map, []

    def singular(phi, d, doublings):
        if any(flow.tobytes() == bad for flow in np.reshape(phi, (-1, *phi.shape[-2:]))):
            hits.append(phi.ndim)
            raise np.linalg.LinAlgError("Singular matrix")
        return doubled_map(phi, d, doublings)

    monkeypatch.setattr(dyn, "_doubled_map", singular)
    records = failed_runs_with_and_without_prepared_flows(
        monkeypatch, lambda: om.run_monitoring_protocol(program, p, sched, 24))
    assert hits == [3, 2, 2]  # the stack, then step 2 alone; then step 2 alone
    assert records[0] == records[1]
    kind, message, written, guarded, scored = records[0]
    assert (kind, message, written) == (np.linalg.LinAlgError, "Singular matrix", 0)
    # Steps 0 and 1, then what step 2 sampled before its failed chunk ends.
    times = [t for t, _ in guarded]
    assert len(times) == 3 and times[0][-1] < times[1][0] and times[1][-1] < times[2][0]
    assert len(scored) == 1


@pytest.mark.parametrize("bad", [np.nan, -60e-6], ids=["nan", "negative"])
def test_a_bad_step_length_still_fails_its_flow_at_its_step(monkeypatch, bad):
    # A schedule rejects such lengths, so the run is driven directly.
    sched = types.SimpleNamespace(durations=(60e-6, 60e-6, bad, 60e-6))
    records = failed_runs_with_and_without_prepared_flows(monkeypatch, lambda: om._monitor(
        [om._prepare(mbqc.shear_program(1.0), om.params_set1())], sched, 16, False))
    assert records[0] == records[1]
    kind, message, _, guarded, _ = records[0]
    assert kind is ValueError and "interval h must be finite and non-negative" in message
    assert len(guarded) == 2


@settings(max_examples=30, deadline=None)
@given(preset=hst.sampled_from(["set1", "set2"]),
       program=hst.sampled_from([mbqc.shear_program(1.0), mbqc.cz_program()]),
       samples=hst.sampled_from([2, 16, 120]),
       points=hst.lists(hst.tuples(hst.floats(0.0, 80.0), hst.floats(-4.0, -2.0),
                                   hst.floats(0.5, 1.0), hst.sampled_from([3.0, 6.0]),
                                   hst.booleans()), min_size=1, max_size=6))
def test_a_batch_is_its_runs_alone_bit_for_bit(preset, program, samples, points):
    # Points over gamma, T, eta, the cluster squeezing and the cavity reset,
    # run as one lockstep batch, each with the bits of its run alone on
    # fresh run caches. The batch is one engine call, never redone, and
    # neither it nor a lone run steps a stack of one.
    params = [replace(om.PhysicalParams.from_values(dict(
        om.PRESETS[preset], gamma_hz=gamma_hz, temperature_k=10.0 ** log_t, eta=eta,
        r_cluster_db=r_db)), reset_cavity=reset) for gamma_hz, log_t, eta, r_db, reset in points]
    sched = om.MonitoringSchedule.equal(30e-6, len(program.pattern.measured))
    monitor, step, batches, stacks = om._monitor, dyn.Propagator._step, [], []

    def counting_monitor(protocols, *args):
        batches.append(len(protocols))
        return monitor(protocols, *args)

    def counting_step(self, sigmas, flow, work, out):
        stacks.append(len(out) if np.ndim(out) == 3 else 0)
        return step(self, sigmas, flow, work, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(om, "_monitor", counting_monitor)
        patch.setattr(dyn.Propagator, "_step", counting_step)
        om._step_coefficients.cache_clear()
        batch = om.run_monitoring_batch(program, params, sched, samples, keep_trajectories=True)
        assert batches == [len(params)]
        om._step_coefficients.cache_clear()
        alone = [om.run_monitoring_protocol(program, p, sched, samples, keep_trajectories=True)
                 for p in params]
    assert 1 not in stacks
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        assert same_run(got, want)
        assert [(s.start, s.stop) for s in got.step_slices] == \
            [(s.start, s.stop) for s in want.step_slices]


# ---------------------------------------------------------------------------
# decorrelation


def test_decorrelation_of_product_state_is_zero():
    times = np.array([0.0, 1.0])
    covs = np.stack([0.5 * np.eye(6)] * 2)
    traj = dyn.Trajectory(times, covs)
    assert_allclose(om.measured_node_decorrelation(traj, 1), 0.0)


@pytest.mark.parametrize("node", [6, 17, -1, 1.0])
def test_decorrelation_rejects_a_node_outside_the_trajectory(node):
    # Slicing past the last mode would give an empty block, that is zeros.
    traj = dyn.Trajectory(np.array([0.0, 1.0]), np.stack([0.5 * np.eye(12)] * 2))
    with pytest.raises(ValueError, match="is not a mode of the 6-mode trajectory"):
        om.measured_node_decorrelation(traj, node)


@pytest.mark.parametrize("node, phi", [(0, None), (0, 0.4), (2, -1.3), (5, None)])
def test_decorrelation_matches_per_sample_norms(node, phi):
    rng = np.random.default_rng(node)
    covs = rng.normal(size=(7, 12, 12))
    traj = dyn.Trajectory(np.arange(7.0), covs + covs.transpose(0, 2, 1))
    keep = [j for j in range(12) if j // 2 != node]
    expected = []
    for cov in traj.covs:
        block = cov[2 * node : 2 * node + 2][:, keep]
        if phi is not None:
            block = np.cos(phi) * block[0] + np.sin(phi) * block[1]
        expected.append(np.sqrt(np.sum(block ** 2)))
    assert_allclose(om.measured_node_decorrelation(traj, node, phi=phi), expected,
                    rtol=1e-14)


def test_decorrelation_decays_under_set2():
    p = om.params_set2()
    prog = mbqc.shear_program(1.0)
    sched = om.MonitoringSchedule.equal(40e-6, 4)
    res = om.run_monitoring_protocol(prog, p, sched, samples_per_step=24,
                                     keep_trajectories=True)
    phi = prog.pattern.phases[0]
    norms = om.measured_node_decorrelation(res.trajectories[0], 0, phi=phi)
    assert norms[-1] < 1e-2 * norms[0]


def test_decorrelation_frozen_at_negligible_efficiency():
    # eta -> 0 removes the information gain, so the measured-quadrature
    # correlations survive the step.
    p = replace(om.params_set2(), eta=1e-9)
    prog = mbqc.shear_program(1.0)
    sched = om.MonitoringSchedule.equal(10e-6, 4)
    res = om.run_monitoring_protocol(prog, p, sched, samples_per_step=10,
                                     keep_trajectories=True)
    phi = prog.pattern.phases[0]
    norms = om.measured_node_decorrelation(res.trajectories[0], 0, phi=phi)
    assert norms[-1] > 0.9 * norms[0]


# ---------------------------------------------------------------------------
# schedule optimization


def test_optimizer_runs_to_max_without_decay():
    # No thermal noise and no loss: fidelity never decreases, so every step
    # runs to the maximum allowed duration.
    p = om.params_set2()
    sched, result = om.optimize_schedule(
        mbqc.shear_program(1.0), p, time_resolution=2e-6,
        max_step_duration=8e-6)
    assert sched.durations == (8e-6, 8e-6, 8e-6, 8e-6)
    assert result.final_fidelity > 0.9


def test_optimizer_beats_equal_steps_for_same_budget():
    p = replace(om.params_set1(), temperature_k=10e-3)
    prog = mbqc.shear_program(1.0)
    sched, result = om.optimize_schedule(prog, p, time_resolution=1e-6,
                                         max_step_duration=80e-6)
    equal = om.MonitoringSchedule.equal(sched.total / len(sched.durations),
                                        len(sched.durations))
    res_equal = om.run_monitoring_protocol(prog, p, equal, samples_per_step=8)
    assert result.final_fidelity >= res_equal.final_fidelity - 1e-6


def test_optimizer_interior_maximum_with_losses():
    # Thermal damping forces finite optimized steps.
    p = replace(om.params_set1(), temperature_k=10e-3)
    sched, result = om.optimize_schedule(
        mbqc.identity_program(), p, time_resolution=2e-6,
        max_step_duration=60e-6)
    assert all(2e-6 <= t < 60e-6 for t in sched.durations)
    assert result.final_fidelity > 0.9


def greedy_oracle(program, params, time_resolution, max_step_duration):
    """The greedy search one increment at a time, as a reference.

    Each increment is propagated with ``Propagator.advance``, guarded with
    ``check_samples`` at its elapsed step time, and scored by a per-state
    completion and ``fidelity``. Returns the schedule and, per step, the
    covariance it started from, the increments scanned and how it ended.
    """
    protocol = om._prepare(program, params)
    n = 2 * protocol.pattern.graph.n_nodes

    def completed(cov, k):
        # The run is in the measurement frame: later steps measure p.
        pattern = protocol.pattern
        output = st.condition_on_homodyne(cov[None, :n, :n], pattern.measured[k + 1:],
                                          pattern.outputs)[0]
        return st.fidelity(st.GaussianState(output), protocol.reference)

    cov = protocol.initial_cov()
    durations, steps = [], []
    for k, coeffs in enumerate(protocol.steps):
        if k:
            cov = protocol.handover(cov)
        step = {"start": cov, "scanned": 0, "stop": "max_step"}
        best_f, best_cov, best_t = completed(cov, k), cov, 0.0
        elapsed = 0.0
        while elapsed + time_resolution <= max_step_duration + 1e-15:
            cov = coeffs.propagator.advance(cov, time_resolution)
            elapsed += time_resolution
            dyn.check_samples([elapsed], cov[None])
            step["scanned"] += 1
            f_now = completed(cov, k)
            if f_now > best_f:
                best_f, best_cov, best_t = f_now, cov, elapsed
            elif f_now < best_f - om.DECREASE_TOL:
                step["stop"] = "decrease_tol"
                break
        if best_t == 0.0:
            step["stop"] = "never_improved"
            best_t = time_resolution
            best_cov = coeffs.propagator.advance(best_cov, time_resolution)
            dyn.check_samples([time_resolution], best_cov[None])
        cov = best_cov
        durations.append(best_t)
        steps.append(step)
    return om.MonitoringSchedule(tuple(durations)), steps


def test_a_dip_within_the_decrease_tolerance_does_not_end_a_step(monkeypatch):
    # Each step's completed fidelity dips 1.5e-4 below its best, reaches a new
    # best, then drops 3e-4: with DECREASE_TOL = 2e-4 the search passes the
    # dip, stops at the drop and keeps the new best, at the fourth increment.
    # A tolerance of 1e-4 (or 0) would stop at the dip, one of 4e-4 would run
    # on to the last increment.
    trace = (0.90, 0.95, 0.95 - 1.5e-4, 0.96, 0.96 - 3e-4, 0.99)

    def scripted(protocol, step, cov, time_resolution, max_step_duration):
        yield 0.0, cov, 0.5  # the step's start, scored below every increment
        for k, fidelity in enumerate(trace, start=1):
            yield k * time_resolution, cov, fidelity

    monkeypatch.setattr(om, "_step_increments", scripted)
    schedule, result = om.optimize_schedule(mbqc.identity_program(), om.params_set2(),
                                            time_resolution=1e-6, max_step_duration=1e-5)
    assert schedule.durations == (4 * 1e-6,) * 4
    assert result.schedule == schedule


ORACLE_PROGRAMS = {
    "identity": mbqc.identity_program(),
    "fourier": mbqc.fourier_program(),
    "shear3.7": mbqc.shear_program(3.7),
    "cz": mbqc.cz_program(),
}


@pytest.mark.parametrize("temperature_k", [1e-3, 3e-3, 10e-3], ids=["1mK", "3mK", "10mK"])
@pytest.mark.parametrize("gate", sorted(ORACLE_PROGRAMS))
def test_block_search_matches_per_increment_oracle(gate, temperature_k):
    # 15 increments fit a step; at 1 mK some steps run to the maximum.
    # Block boundaries within a step are covered by
    # test_search_block_size_changes_no_result.
    program = ORACLE_PROGRAMS[gate]
    p = replace(om.params_set1(), temperature_k=temperature_k)
    sched, result = om.optimize_schedule(program, p, time_resolution=4e-6,
                                         max_step_duration=60e-6)
    oracle, steps = greedy_oracle(program, p, 4e-6, 60e-6)
    assert sched.durations == oracle.durations
    replay = om.run_monitoring_protocol(program, p, oracle)
    assert np.array_equal(result.fidelities, replay.fidelities)
    if temperature_k == 1e-3 and gate != "cz":
        assert "max_step" in [step["stop"] for step in steps]


@pytest.mark.parametrize("program, temperature_k, resolution, max_step, stops", [
    (mbqc.identity_program(), 10.0, 2e-6, 20e-6, {"never_improved"}),
    (mbqc.cz_program(), 1e-3, 3e-6, 2e-6, {"never_improved"}),
    (mbqc.shear_program(1.0), 1e-3, 1e-6, 5e-6, {"max_step"}),
], ids=["never-improves", "max-below-resolution", "hits-max"])
def test_block_search_matches_oracle_at_the_edges(program, temperature_k, resolution,
                                                  max_step, stops):
    p = replace(om.params_set1(), temperature_k=temperature_k)
    sched, result = om.optimize_schedule(program, p, resolution, max_step)
    oracle, steps = greedy_oracle(program, p, resolution, max_step)
    assert {step["stop"] for step in steps} == stops
    assert sched.durations == oracle.durations
    replay = om.run_monitoring_protocol(program, p, oracle)
    assert np.array_equal(result.fidelities, replay.fidelities)


@pytest.mark.parametrize("program, temperature_k, max_step", [
    *[(ORACLE_PROGRAMS[gate], t, 120e-6)
      for gate in sorted(ORACLE_PROGRAMS) for t in (1e-3, 3e-3, 10e-3)],
    (mbqc.identity_program(), 10.0, 20e-6),
], ids=[*[f"{gate}-{t}" for gate in sorted(ORACLE_PROGRAMS) for t in ("1mK", "3mK", "10mK")],
        "never-improves"])
def test_search_block_size_changes_no_result(monkeypatch, program, temperature_k, max_step):
    # Completion and fidelity are per entry, and a failing block is redone
    # one increment at a time, so the block size moves no bit. At 2 us
    # resolution a step scans up to 60 increments, across the boundaries of
    # blocks of 1, 8 and 24.
    p = replace(om.params_set1(), temperature_k=temperature_k)
    runs = []
    for block in (1, 8, 24, 64):
        monkeypatch.setattr(om, "SEARCH_BLOCK", block)
        runs.append(om.optimize_schedule(program, p, 2e-6, max_step))
    (sched, result), *others = runs
    for other_sched, other_result in others:
        assert other_sched.durations == sched.durations
        assert np.array_equal(other_result.fidelities, result.fidelities)


def poison_increment(monkeypatch, start_cov, propagator, increment, resolution):
    """Make the propagators' samples NaN for one increment of a step: the
    one whose clean value lies ``increment`` clean increments after
    ``start_cov``."""
    clean = [start_cov]
    for _ in range(increment):
        clean.append(propagator.advance(clean[-1], resolution))
    fault_samples(monkeypatch, clean, {increment: lambda s: np.full_like(s, np.nan)})


SEARCH_CASE = (mbqc.identity_program(), replace(om.params_set1(), temperature_k=10e-3),
               2e-6, 200e-6)


def test_optimizer_search_error_surfaces_at_its_increment(monkeypatch):
    # Step 0 of this search peaks at 8 increments and stops at the 10th,
    # inside the first block of increments 1-24: increments 11 and 17 are
    # computed there but never read, and increment 25 starts a block never
    # built.
    program, p, resolution, max_step = SEARCH_CASE
    clean, steps = greedy_oracle(program, p, resolution, max_step)
    stop = steps[0]["scanned"]
    assert steps[0]["stop"] == "decrease_tol" and stop == 10
    propagator = om._prepare(program, p).steps[0].propagator
    for increment in (1, 9, stop, stop + 1, 17, 25):
        with monkeypatch.context() as patch:
            poison_increment(patch, steps[0]["start"], propagator, increment, resolution)
            if increment > stop:
                sched, _ = om.optimize_schedule(program, p, resolution, max_step)
                assert sched.durations == clean.durations
                continue
            with pytest.raises(dyn.PhysicalityError) as info:
                om.optimize_schedule(program, p, resolution, max_step)
            assert info.value.t == sum([resolution] * increment)
            assert info.value.t == pytest.approx(increment * resolution, rel=1e-12)


def test_optimizer_physicality_error_reports_elapsed_step_time(monkeypatch):
    # A failure at increment 3 of step 1 reports 3 increments, the time
    # within its step, not the resolution and not the protocol time.
    program, p, resolution, max_step = SEARCH_CASE
    _, steps = greedy_oracle(program, p, resolution, max_step)
    propagator = om._prepare(program, p).steps[1].propagator
    poison_increment(monkeypatch, steps[1]["start"], propagator, 3, resolution)
    with pytest.raises(dyn.PhysicalityError) as info:
        om.optimize_schedule(program, p, resolution, max_step)
    assert info.value.t == pytest.approx(6e-6, rel=1e-12)
    assert info.value.nu_min == float("-inf")


def test_the_search_makes_one_completion_call_per_block(monkeypatch):
    # Each step's start is scored inside its first block's completion call,
    # so the search completes nothing beside its blocks. The replay scores
    # its samples without a completion.
    calls = {"completions": 0, "blocks": 0}
    complete, score = om._Protocol.completed_fidelities, om._score_increments

    def counting_completion(self, covs, step):
        calls["completions"] += 1
        return complete(self, covs, step)

    def counting_block(*args, **kwargs):
        calls["blocks"] += 1
        return score(*args, **kwargs)

    monkeypatch.setattr(om._Protocol, "completed_fidelities", counting_completion)
    monkeypatch.setattr(om, "_score_increments", counting_block)
    program, p, resolution, max_step = SEARCH_CASE
    sched, _ = om.optimize_schedule(program, p, resolution, max_step)
    assert calls["blocks"] >= len(sched.durations)
    assert calls["completions"] == calls["blocks"]


def unphysical_start_case(monkeypatch):
    """Make step 0 of SEARCH_CASE start from an unphysical covariance, and
    return it with the error its own completion raises."""
    program, p, resolution, max_step = SEARCH_CASE
    protocol = om._prepare(program, p)
    start = 0.5 * protocol.initial_cov()  # every symplectic eigenvalue below vacuum
    monkeypatch.setattr(om._Protocol, "initial_cov", lambda self: start.copy())
    with pytest.raises(st.UnphysicalStateError) as info:
        protocol.completed_fidelities(start[None], 0)
    return info.value


def singular_sample(self, sigma, h, out):
    raise np.linalg.LinAlgError("Singular matrix")


def nan_sample(self, sigma, h, out):
    out[...] = np.nan
    return out


@pytest.mark.parametrize("sample", [singular_sample, nan_sample, None],
                         ids=["linalg", "physicality", "unpatched"])
def test_an_unphysical_start_raises_before_its_first_block_error(monkeypatch, sample):
    # The first block fails (a singular solve, a NaN sample the guard
    # rejects, or whatever the real block meets): the start, scored on its
    # own first, raises its own completion error, as if it were scored
    # before any increment.
    want = unphysical_start_case(monkeypatch)
    if sample is not None:
        monkeypatch.setattr(dyn.Propagator, "sample", sample)
    with pytest.raises(st.UnphysicalStateError) as info:
        om.optimize_schedule(*SEARCH_CASE)
    assert type(info.value) is type(want) is st.UnphysicalStateError
    assert str(info.value) == str(want) and "input state is unphysical" in str(want)


@pytest.mark.parametrize("poisoned", [None, 1, 30], ids=["clean", "first-block", "second-block"])
def test_a_step_start_yields_its_own_completion_byte_for_byte(monkeypatch, poisoned):
    # Entry 0 of the first block's completion call, or the start's own call
    # where that block fails, gives the bits of a completion of the start
    # alone, at every step's start.
    program, p, resolution, max_step = SEARCH_CASE
    _, steps = greedy_oracle(program, p, resolution, max_step)
    protocol = om._prepare(program, p)
    for k, step in enumerate(steps):
        start = step["start"]
        with monkeypatch.context() as patch:
            if poisoned:
                poison_increment(patch, start, protocol.steps[k].propagator, poisoned,
                                 resolution)
            t, cov, score = next(om._step_increments(protocol, k, start, resolution,
                                                     max_step))
        assert t == 0.0 and np.array_equal(cov, start)
        alone = protocol.completed_fidelities(start[None], k)[0]
        assert type(score) is type(alone) and score.tobytes() == alone.tobytes()


def test_optimizer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        om.optimize_schedule(mbqc.identity_program(), om.params_set2(),
                             time_resolution=0.0, max_step_duration=1e-5)


@pytest.mark.parametrize("argument", ["time_resolution", "max_step_duration"])
def test_optimizer_rejects_non_finite_arguments(argument):
    for value in NON_FINITE:
        kwargs = dict(time_resolution=1e-6, max_step_duration=1e-5)
        kwargs[argument] = value
        with pytest.raises(ValueError, match=f"{argument} must be positive and finite"):
            om.optimize_schedule(mbqc.identity_program(), om.params_set2(), **kwargs)


# ---------------------------------------------------------------------------
# parameter-dependence behaviour


def test_final_fidelity_has_interior_maximum_over_step_duration():
    # With mechanical losses the per-step monitoring time has a sweet spot:
    # short steps leave the measurements incomplete, long ones expose the
    # cluster to thermal damage.
    p = om.params_set1()
    prog = mbqc.shear_program(1.0)
    finals = [
        om.run_monitoring_protocol(
            prog, p, om.MonitoringSchedule.equal(t_us * 1e-6, 4),
            samples_per_step=6).final_fidelity
        for t_us in (15.0, 100.0, 400.0)
    ]
    assert finals[1] > finals[0]
    assert finals[1] > finals[2]


def test_kappa_tradeoff_is_non_monotone():
    # Very small cavity decay starves the read-out within the time budget;
    # very large decay weakens the effective measurement. The optimum sits
    # in between.
    p = om.params_set1()
    prog = mbqc.shear_program(1.0)
    sched = om.MonitoringSchedule.equal(60e-6, 4)
    finals = []
    for kappa_hz in (0.001e6, 0.01e6, 1.5e6):
        kappa = 2 * np.pi * kappa_hz
        params = replace(p, kappa=kappa, tau=0.01 * kappa)
        finals.append(om.run_monitoring_protocol(
            prog, params, sched, samples_per_step=6).final_fidelity)
    assert finals[1] > finals[0]
    assert finals[1] > finals[2]


def test_alpha_g_monotone_and_saturating():
    p = om.params_set1()
    prog = mbqc.shear_program(1.0)
    sched = om.MonitoringSchedule.equal(60e-6, 4)
    finals = [
        om.run_monitoring_protocol(
            prog, replace(p, alpha_g=alpha_g), sched,
            samples_per_step=6).final_fidelity
        for alpha_g in (0.05e6, 0.35e6, 1.2e6)
    ]
    assert finals[0] < finals[1] < finals[2]
    # Diminishing returns: the second tripling buys far less than the first.
    assert finals[2] - finals[1] < 0.1 * (finals[1] - finals[0])


# ---------------------------------------------------------------------------
# gate comparison


def test_gate_comparison_set2_all_gates_high_fidelity():
    sched = om.MonitoringSchedule.equal(30e-6, 4)
    results = om.gate_comparison(om.params_set2(), sched)
    for name, res in results.items():
        assert res.final_fidelity >= 0.99, (name, res.final_fidelity)


def test_gate_comparison_default_set():
    p = om.params_set2()
    sched = om.MonitoringSchedule.equal(2e-6, 4)
    out = om.gate_comparison(p, sched)
    assert set(out) == {"identity", "fourier", "shear(1)", "shear(3)", "shear(5)"}
    for res in out.values():
        assert 0.0 <= res.final_fidelity <= 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        om.MonitoringSchedule((1e-6, 0.0))
    sched = om.MonitoringSchedule.equal(2e-6, 4)
    assert sched.total == pytest.approx(8e-6)


@pytest.mark.parametrize("n_steps", [-1, 2.5, True, "4", None],
                         ids=["negative", "float", "bool", "str", "none"])
def test_an_equal_schedule_needs_a_non_negative_integer_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps must be a non-negative integer"):
        om.MonitoringSchedule.equal(2e-6, n_steps)


@pytest.mark.parametrize("durations, bad", [
    ("12", "'12'"), (b"12", "b'12'"), (5e-6, "5e-06"), ([True, 2e-6], "True"),
    ([np.bool_(False), 2e-6], "False"), (["1e-6", 2e-6], "'1e-6'"), ([None], "None"),
], ids=["str", "bytes", "bare-float", "bool", "numpy-bool", "str-entry", "none-entry"])
def test_a_schedule_takes_a_sequence_of_real_numbers_only(durations, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        om.MonitoringSchedule(durations)


@pytest.mark.parametrize("t_mon", ["1e-6", True, np.bool_(True), None, [1e-6]],
                         ids=["str", "bool", "numpy-bool", "none", "list"])
def test_an_equal_schedule_takes_a_real_step_length_only(t_mon):
    with pytest.raises(ValueError, match=re.escape(f"t_mon must be a real number, got {t_mon!r}")):
        om.MonitoringSchedule.equal(t_mon, 2)


def test_a_schedule_takes_ints_floats_numpy_reals_and_arrays():
    want = (1e-6, 2e-6)
    assert om.MonitoringSchedule(np.array(want)).durations == want
    assert om.MonitoringSchedule([np.float64(1e-6), 2e-6]).durations == want
    assert om.MonitoringSchedule((np.float32(0.5), 1, np.int64(2))).durations == (0.5, 1.0, 2.0)
    assert all(type(t) is float for t in om.MonitoringSchedule(np.array(want)).durations)
    assert om.MonitoringSchedule.equal(np.float64(1e-6), 2).durations == (1e-6,) * 2
    assert om.MonitoringSchedule.equal(2, 1).durations == (2.0,)


@pytest.mark.parametrize("value, accepted", [
    (10**400, False), (-10**400, False), (2**1024, False), (2**1024 - 2**971, True),
    (np.int64(2**63 - 1), True), (np.int64(-2**63), True), (np.uint64(2**64 - 1), True),
], ids=["10^400", "-10^400", "2^1024", "largest-float", "int64-max",
        "int64-min", "uint64-max"])
def test_an_integer_beyond_the_float_range_is_a_value_error_naming_it(value, accepted):
    # float() of such an int raises OverflowError; numpy integers always fit.
    if accepted:
        assert st.real_number(value, "t_mon") == float(value)
        return
    for build, name in ((lambda: om.MonitoringSchedule((1e-6, value)), "a monitoring duration"),
                        (lambda: om.MonitoringSchedule.equal(value, 2), "t_mon")):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a real number within the float range, got {value!r}")):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: om.MonitoringSchedule((10**5000,)),
     "a monitoring duration must be a real number within the float range, "
     "got an integer of 5001 digits"),
    (lambda: om.MonitoringSchedule.equal(10**5000, 2),
     "t_mon must be a real number within the float range, got an integer of 5001 digits"),
    (lambda: om.MonitoringSchedule.equal(1e-6, -10**5000),
     "n_steps must be a non-negative integer, got a negative integer of 5001 digits"),
    (lambda: dyn.sample_cap(-10**5000, "n"),
     "n must be an integer of at least 2, got a negative integer of 5001 digits"),
    (lambda: st.GraphSpec(-10**5000),
     "a graph needs an integer node count of at least 1, "
     "got a negative integer of 5001 digits"),
], ids=["duration", "t_mon", "n_steps", "sample-cap", "node-count"])
def test_an_integer_too_long_to_print_is_named_by_its_digit_count(build, message):
    # Python refuses str() of an int past 4,300 digits, so the message may
    # not format the value itself.
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_an_equal_schedule_of_no_steps_is_empty():
    # A pattern may measure no node; a numpy integer counts as an integer.
    assert om.MonitoringSchedule.equal(2e-6, 0).durations == ()
    assert om.MonitoringSchedule.equal(2e-6, np.int64(3)).durations == (2e-6,) * 3


def test_schedule_rejects_non_finite_durations():
    for value in NON_FINITE:
        with pytest.raises(ValueError, match="durations must be positive and finite"):
            om.MonitoringSchedule((1e-6, value, 1e-6, 1e-6))
