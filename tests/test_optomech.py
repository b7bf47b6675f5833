"""Tests for the cavity-resonator model and the stepped monitoring protocol."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import constants

from mechmbqc import dynamics as dyn
from mechmbqc import mbqc
from mechmbqc import optomech as om
from mechmbqc import states as st

from dataclasses import replace


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
    assert p.mech_frequencies == tuple(2 * np.pi * 11e6 * j for j in (1, 2, 3, 4, 5))


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


# NaN first: an unchecked infinite search bound would never return. eta's
# range check already excludes all three.
NON_FINITE = (np.nan, np.inf, -np.inf)


@pytest.mark.parametrize("field", ["gamma", "kappa", "tau", "alpha_g", "temperature_k",
                                   "r_post_meas_db", "r_cluster_db", "mech_frequencies"])
def test_params_reject_non_finite_values(field):
    p = om.params_set1()
    for value in NON_FINITE:
        bad = (value,) * p.n_mech if field == "mech_frequencies" else value
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            replace(p, **{field: bad})


# ---------------------------------------------------------------------------
# QND step construction


def test_qnd_step_hamiltonian_angle():
    p = om.params_set2(n_mech=2)
    coupling, _ = om.build_qnd_step(p, 0, np.pi / 2.0)
    h = coupling.h_system
    q_cav = 4
    # phi = pi/2 couples the cavity position to the resonator momentum only.
    assert h[q_cav, 1] == pytest.approx(2 * p.alpha_g)
    assert abs(h[q_cav, 0]) < 1e-9
    coupling0, _ = om.build_qnd_step(p, 1, 0.0)
    assert coupling0.h_system[q_cav, 2] == pytest.approx(2 * p.alpha_g)
    assert abs(coupling0.h_system[q_cav, 3]) < 1e-9


def test_qnd_step_zero_coupling():
    p = replace(om.params_set2(n_mech=2), alpha_g=0.0)
    coupling, _ = om.build_qnd_step(p, 0, 0.3)
    assert np.max(np.abs(coupling.h_system)) == 0.0


def test_qnd_step_channel_layout():
    p = om.params_set1(n_mech=3)
    coupling, baths = om.build_qnd_step(p, 1, 0.7)
    q_cav = 6
    assert coupling.c_monitored.shape == (8, 2)
    assert_allclose(coupling.c_monitored[q_cav:, :], np.sqrt(p.kappa) * np.eye(2))
    assert np.max(np.abs(coupling.c_monitored[:q_cav, :])) == 0.0
    # tau channel first, then one thermal channel per resonator.
    assert coupling.c_dissipative.shape == (8, 8)
    assert_allclose(coupling.c_dissipative[q_cav:, :2], np.sqrt(p.tau) * np.eye(2))
    occ = p.occupancies()
    expected_diag = np.concatenate([[0.5, 0.5], np.repeat(occ + 0.5, 2)])
    assert_allclose(np.diag(baths.sigma_dissipative), expected_diag)
    assert_allclose(baths.sigma_monitored, 0.5 * np.eye(2))
    assert baths.eta == p.eta


def test_qnd_step_set2_has_no_dissipation():
    p = om.params_set2(n_mech=2)
    coupling, _ = om.build_qnd_step(p, 0, 0.0)
    assert np.max(np.abs(coupling.c_dissipative)) == 0.0


def test_qnd_step_invalid_resonator():
    with pytest.raises(ValueError):
        om.build_qnd_step(om.params_set2(n_mech=2), 5, 0.0)


def test_qnd_step_label_permutation_equivariance():
    # Relabeling the resonators (frequencies and drive assignment together)
    # conjugates every coefficient matrix by the same mode permutation, so
    # all downstream fidelity traces are label-invariant.
    p = om.params_set1(n_mech=3)
    perm = [2, 0, 1]  # new index -> old index
    p_perm = replace(p, mech_frequencies=tuple(p.mech_frequencies[i] for i in perm))
    n = 4  # three resonators plus cavity; cavity stays last
    pmat = np.zeros((2 * n, 2 * n))
    for new, old in enumerate(perm):
        pmat[2 * new : 2 * new + 2, 2 * old : 2 * old + 2] = np.eye(2)
    pmat[6:, 6:] = np.eye(2)

    addressed_old = 1
    addressed_new = perm.index(addressed_old)
    coupling, baths = om.build_qnd_step(p, addressed_old, 0.4)
    coupling_p, baths_p = om.build_qnd_step(p_perm, addressed_new, 0.4)
    coeffs = dyn.build_coefficients(coupling, baths)
    coeffs_p = dyn.build_coefficients(coupling_p, baths_p)
    assert_allclose(coeffs_p.drift, pmat @ coeffs.drift @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.diffusion, pmat @ coeffs.diffusion @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.bbt(), pmat @ coeffs.bbt() @ pmat.T, atol=1e-12)


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
    # One angle for four measured nodes would be broadcast to all four by
    # completion while the monitor ran a single step.
    pattern = mbqc.MeasurementPattern(st.GraphSpec.linear(5), (0,), (0, 1, 2, 3),
                                      (np.pi / 2.0,), (4,))
    program = mbqc.GateProgram(pattern, np.eye(2), "short")
    with pytest.raises(ValueError, match="1 phases for 4 measured modes"):
        om.run_monitoring_protocol(program, om.params_set1(),
                                   om.MonitoringSchedule.equal(40e-6, 1))


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
    phases = prog.measurement_phases()
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
    n_steps = len(program.measurement_phases())
    res = om.run_monitoring_protocol(program, p,
                                     om.MonitoringSchedule.equal(2e-6, n_steps),
                                     samples_per_step=4, keep_trajectories=True)
    graph = program.pattern.graph
    start = res.trajectories[0].covs[0]
    cluster = st.build_cluster(graph, r_db)
    assert np.array_equal(start[: 2 * graph.n_nodes, : 2 * graph.n_nodes], cluster.cov)
    inp = st.squeeze_momentum(st.vacuum(1), 0, r_db)
    projective = mbqc.run_projective(program, [inp] * len(program.pattern.inputs), r_db)
    assert np.array_equal(res.reference_state.cov, projective.cov)


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
    sched = om.MonitoringSchedule.equal(t_mon, len(program.measurement_phases()))
    res = om.run_monitoring_protocol(program, params, sched, samples_per_step=10)
    assert res.final_fidelity == pytest.approx(final, rel=0, abs=1e-12)
    assert res.max_fidelity == pytest.approx(best, rel=0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# decorrelation


def test_decorrelation_of_product_state_is_zero():
    times = np.array([0.0, 1.0])
    covs = np.stack([0.5 * np.eye(6)] * 2)
    traj = dyn.Trajectory(times, covs)
    assert_allclose(om.measured_node_decorrelation(traj, 1), 0.0)


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
    phi = prog.measurement_phases()[0]
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
    phi = prog.measurement_phases()[0]
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
    ``_check_samples`` at its elapsed step time, and scored by a per-state
    completion and ``fidelity``. Returns the schedule and, per step, the
    covariance it started from, the increments scanned and how it ended.
    """
    protocol = om._prepare(program, params)
    n = 2 * protocol.params.n_mech

    def completed(cov, k):
        mech = st.GaussianState(n // 2, cov[:n, :n])
        return st.fidelity(protocol.pattern.after(k + 1).complete(mech),
                           protocol.reference)

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
            dyn._check_samples([elapsed], cov[None])
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
            dyn._check_samples([time_resolution], best_cov[None])
        cov = best_cov
        durations.append(best_t)
        steps.append(step)
    return om.MonitoringSchedule(tuple(durations)), steps


ORACLE_PROGRAMS = {
    "identity": mbqc.identity_program(),
    "fourier": mbqc.fourier_program(),
    "shear3.7": mbqc.shear_program(3.7),
    "cz": mbqc.cz_program(),
}


@pytest.mark.parametrize("temperature_k", [1e-3, 3e-3, 10e-3], ids=["1mK", "3mK", "10mK"])
@pytest.mark.parametrize("gate", sorted(ORACLE_PROGRAMS))
def test_block_search_matches_per_increment_oracle(gate, temperature_k):
    # 15 increments fit a step, so the search crosses a block boundary; at
    # 1 mK some steps run to the maximum.
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


def poison_increment(monkeypatch, start_cov, propagator, increment, resolution):
    """Make ``Propagator.advance`` return NaN for one increment of a step:
    the one that starts from the covariance ``increment - 1`` clean
    increments after ``start_cov``."""
    poisoned_input = start_cov
    for _ in range(increment - 1):
        poisoned_input = propagator.advance(poisoned_input, resolution)
    real_advance = dyn.Propagator.advance

    def advance(self, sigma, h):
        out = real_advance(self, sigma, h)
        if h == resolution and np.array_equal(sigma, poisoned_input):
            return np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(dyn.Propagator, "advance", advance)


SEARCH_CASE = (mbqc.identity_program(), replace(om.params_set1(), temperature_k=10e-3),
               2e-6, 200e-6)


def test_optimizer_search_error_surfaces_at_its_increment(monkeypatch):
    # Step 0 of this search peaks at 8 increments and stops at the 10th, in
    # the block of increments 9-16; increment 17 starts a block never built.
    program, p, resolution, max_step = SEARCH_CASE
    clean, steps = greedy_oracle(program, p, resolution, max_step)
    stop = steps[0]["scanned"]
    assert steps[0]["stop"] == "decrease_tol" and stop == 10
    propagator = om._prepare(program, p).steps[0].propagator
    for increment in (1, 9, stop, stop + 1, 17):
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


def test_schedule_rejects_non_finite_durations():
    for value in NON_FINITE:
        with pytest.raises(ValueError, match="durations must be positive and finite"):
            om.MonitoringSchedule((1e-6, value, 1e-6, 1e-6))
