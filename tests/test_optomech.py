"""Tests for the cavity-resonator model and the stepped monitoring protocol."""

import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import constants

from mechmbqc import dynamics as dyn
from mechmbqc import mbqc
from mechmbqc import optomech as om
from mechmbqc import states as st

from dataclasses import fields, replace

from oracles import generic_solve_advance


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


@pytest.mark.parametrize("field", ["gamma", "kappa", "tau", "alpha_g", "temperature_k",
                                   "r_post_meas_db", "r_cluster_db"])
def test_params_reject_non_finite_values(field):
    p = om.params_set1()
    for value in NON_FINITE:
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            replace(p, **{field: value})


# ---------------------------------------------------------------------------
# QND step construction


def test_qnd_step_hamiltonian_angle():
    p = om.params_set2()
    coupling, _ = om.build_qnd_step(p, 2, 0, np.pi / 2.0)
    h = coupling.h_system
    q_cav = 4
    # phi = pi/2 couples the cavity position to the resonator momentum only.
    assert h[q_cav, 1] == pytest.approx(2 * p.alpha_g)
    assert abs(h[q_cav, 0]) < 1e-9
    coupling0, _ = om.build_qnd_step(p, 2, 1, 0.0)
    assert coupling0.h_system[q_cav, 2] == pytest.approx(2 * p.alpha_g)
    assert abs(coupling0.h_system[q_cav, 3]) < 1e-9


def test_qnd_step_zero_coupling():
    p = replace(om.params_set2(), alpha_g=0.0)
    coupling, _ = om.build_qnd_step(p, 2, 0, 0.3)
    assert np.max(np.abs(coupling.h_system)) == 0.0


def test_qnd_step_channel_layout():
    p = om.params_set1()
    coupling, baths = om.build_qnd_step(p, 3, 1, 0.7)
    q_cav = 6
    assert coupling.c_monitored.shape == (8, 2)
    assert_allclose(coupling.c_monitored[q_cav:, :], np.sqrt(p.kappa) * np.eye(2))
    assert np.max(np.abs(coupling.c_monitored[:q_cav, :])) == 0.0
    # tau channel first, then one thermal channel per resonator.
    assert coupling.c_dissipative.shape == (8, 8)
    assert_allclose(coupling.c_dissipative[q_cav:, :2], np.sqrt(p.tau) * np.eye(2))
    occ = p.occupancies(3)
    expected_diag = np.concatenate([[0.5, 0.5], np.repeat(occ + 0.5, 2)])
    assert_allclose(np.diag(baths.sigma_dissipative), expected_diag)
    assert_allclose(baths.sigma_monitored, 0.5 * np.eye(2))
    assert baths.eta == p.eta


def test_qnd_step_set2_has_no_dissipation():
    p = om.params_set2()
    coupling, _ = om.build_qnd_step(p, 2, 0, 0.0)
    assert np.max(np.abs(coupling.c_dissipative)) == 0.0


def test_qnd_step_invalid_resonator():
    with pytest.raises(ValueError):
        om.build_qnd_step(om.params_set2(), 2, 5, 0.0)


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
    # Hamiltonian to its drift; that is the per-step build bit for bit.
    program = PREPARED_PROGRAMS[gate]
    p = {"set1": om.params_set1, "set2": om.params_set2}[preset]()
    protocol = om._prepare(program, p)
    n = program.pattern.graph.n_nodes
    pairs = list(zip(program.pattern.measured, program.pattern.phases))
    assert len(protocol.steps) == len(pairs)
    for coeffs, (node, phi) in zip(protocol.steps, pairs):
        want = dyn.build_coefficients(*om.build_qnd_step(p, n, node, phi))
        assert np.array_equal(coeffs.drift, want.drift)
        assert np.array_equal(coeffs.diffusion, want.diffusion)
        assert np.array_equal(coeffs.backaction, want.backaction)
        assert coeffs.propagator.rate == want.propagator.rate


def test_qnd_step_is_the_shared_channels_with_the_node_hamiltonian():
    p = om.params_set1()
    coupling, baths = om.build_qnd_step(p, 3, 1, 0.7)
    shared, shared_baths = om.qnd_channels(p, 3)
    assert not np.any(shared.h_system)
    assert np.array_equal(coupling.h_system, om.qnd_hamiltonian(p, 3, 1, 0.7))
    assert np.array_equal(coupling.c_monitored, shared.c_monitored)
    assert np.array_equal(coupling.c_dissipative, shared.c_dissipative)
    for name in ("sigma_monitored", "sigma_dissipative", "sigma_post_meas"):
        assert np.array_equal(getattr(baths, name), getattr(shared_baths, name))
    assert baths.eta == shared_baths.eta


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
    coupling, baths = om.build_qnd_step(p, 3, addressed_old, 0.4)
    coupling_p, baths_p = om.build_qnd_step(p, 3, addressed_new, 0.4)
    coeffs = dyn.build_coefficients(coupling, baths)
    coeffs_p = dyn.build_coefficients(coupling_p, baths_p)
    assert_allclose(coeffs_p.drift, pmat @ coeffs.drift @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.diffusion, pmat @ coeffs.diffusion @ pmat.T, atol=1e-12)
    assert_allclose(coeffs_p.bbt, pmat @ coeffs.bbt @ pmat.T, atol=1e-12)


def test_one_params_serves_every_resonator_count():
    # Resonator j runs at (j + 1) * 11 MHz whatever the count, so the baths
    # of a four-resonator system are the leading block of a five's.
    p = om.params_set1()
    occupancies = {n: p.occupancies(n) for n in (4, 5)}
    assert occupancies[4].tolist() == occupancies[5][:4].tolist()
    assert occupancies[5].tolist() == [
        om.thermal_occupancy(2 * np.pi * 11e6 * (j + 1), p.temperature_k) for j in range(5)]
    assert occupancies[5][0] == pytest.approx(1.438, abs=1e-3)
    baths = {n: om.build_qnd_step(p, n, 0, 0.3)[1].sigma_dissipative for n in (4, 5)}
    assert np.array_equal(np.diag(baths[5])[2:], np.repeat(occupancies[5] + 0.5, 2))
    assert np.array_equal(baths[5][:10, :10], baths[4])


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


@pytest.mark.parametrize("samples", [0, 1, -3, 2.5, True])
def test_protocol_rejects_a_bad_sample_count(samples):
    sched = om.MonitoringSchedule.equal(3e-6, 4)
    with pytest.raises(ValueError, match="samples_per_step"):
        om.run_monitoring_protocol(mbqc.identity_program(), om.params_set2(), sched,
                                   samples_per_step=samples)


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
    sched = om.MonitoringSchedule.equal(t_mon, len(program.pattern.phases))
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


def sample_in_chunk_3_of_step_2():
    """The clean trajectory of GUARD_CASE's second step and the index of one
    of its samples that falls in the step's third chunk."""
    _, _, schedule, _ = GUARD_CASE
    traj = run_guard_case().trajectories[1]
    t0, chunk = traj.times[0], schedule.durations[1] / om.CHUNKS_PER_STEP
    index = int(np.searchsorted(traj.times, t0 + 2.5 * chunk))
    assert t0 + 2.0 * chunk < traj.times[index] <= t0 + 3.0 * chunk + 1e-15
    return traj, index


def faulty_advance_from(monkeypatch, trigger, faults):
    """Make ``Propagator.advance`` misbehave from the call whose input
    equals ``trigger`` on. ``faults`` maps a call number, counted from that
    call (0), to a function of the correctly advanced covariance that
    returns the sample to store or raises."""
    real_advance = dyn.Propagator.advance
    calls = []

    def advance(self, sigma, h):
        out = real_advance(self, sigma, h)
        if calls or np.array_equal(sigma, trigger):
            calls.append(h)
            return faults.get(len(calls) - 1, lambda s: s)(out)
        return out

    monkeypatch.setattr(dyn.Propagator, "advance", advance)


def test_protocol_guards_each_step_once(monkeypatch):
    guarded = []
    check = dyn._check_samples

    def spy(times, covs):
        guarded.append(len(times))
        check(times, covs)

    monkeypatch.setattr(dyn, "_check_samples", spy)
    result = run_guard_case()
    assert guarded == [s.stop - s.start - 1 for s in result.step_slices]


def test_protocol_reports_a_non_finite_sample_at_its_time(monkeypatch):
    # NaN from one sample of chunk 3 of step 2 on: the step's one guard
    # reports that sample, and the NaN raises no warning on its way through
    # the later solves and dt suggestions of the step.
    traj, index = sample_in_chunk_3_of_step_2()
    faulty_advance_from(monkeypatch, traj.covs[index - 1],
                        {0: lambda s: np.full_like(s, np.nan)})
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

    # The solve fails five samples later, in a later chunk of the same step.
    faulty_advance_from(monkeypatch, traj.covs[index - 1],
                        {0: lambda s: 0.3 * np.eye(len(s)), 5: singular})
    with pytest.raises(dyn.PhysicalityError) as info:
        run_guard_case()
    assert info.value.t == traj.times[index]
    assert info.value.nu_min == pytest.approx(0.3)


def run_short_case(samples_per_step):
    """GUARD_CASE at ``samples_per_step`` samples per step."""
    program, p, schedule, _ = GUARD_CASE
    return om.run_monitoring_protocol(program, p, schedule, samples_per_step,
                                      keep_trajectories=True)


@pytest.mark.parametrize("samples_per_step", [2, 9, 16, 17])
def test_chunks_of_two_samples_evaluate_no_grid_step(monkeypatch, samples_per_step):
    # At up to 16 samples per step a chunk keeps only its end point, so no
    # grid step is suggested; at 17 each step builds its rule once.
    built, svds = [], []
    rule, svd = om.grid_step_rule, np.linalg.svd

    def counting_rule(coeffs, horizon):
        built.append(horizon)
        return rule(coeffs, horizon)

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(om, "grid_step_rule", counting_rule)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    result = run_short_case(samples_per_step)
    _, _, schedule, _ = GUARD_CASE
    if samples_per_step > 16:
        assert built == [t / om.CHUNKS_PER_STEP for t in schedule.durations]
        assert len(svds) == om.CHUNKS_PER_STEP * len(schedule.durations)
        return
    assert built == [] and svds == []
    for traj, t_mon in zip(result.trajectories, schedule.durations):
        chunk = t_mon / om.CHUNKS_PER_STEP
        assert np.array_equal(traj.times,
                              np.cumsum([traj.times[0]] + [chunk] * om.CHUNKS_PER_STEP))


@pytest.mark.parametrize("samples_per_step", [2, 9, 16])
def test_chunks_of_two_samples_report_a_non_finite_sample_at_its_time(
        monkeypatch, samples_per_step):
    # NaN from the fourth sample of step 2 on: it is reported at that
    # sample's time, with no warning from the later solves of the step.
    traj = run_short_case(samples_per_step).trajectories[1]
    assert len(traj) == om.CHUNKS_PER_STEP + 1
    faulty_advance_from(monkeypatch, traj.covs[3],
                        {0: lambda s: np.full_like(s, np.nan)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dyn.PhysicalityError) as info:
            run_short_case(samples_per_step)
    assert info.value.t == traj.times[4]
    assert info.value.nu_min == float("-inf")


def test_monitored_model_propagates_as_a_generic_solve_bit_for_bit():
    # On the QND-step flows of both presets, Propagator.advance equals the
    # same substeps through np.linalg.solve exactly, which keeps monitored
    # runs bit-identical to a generic solve.
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
    ``_check_samples`` at its elapsed step time, and scored by a per-state
    completion and ``fidelity``. Returns the schedule and, per step, the
    covariance it started from, the increments scanned and how it ended.
    """
    protocol = om._prepare(program, params)
    n = 2 * protocol.pattern.graph.n_nodes

    def completed(cov, k):
        mech = st.GaussianState(cov[:n, :n])
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
