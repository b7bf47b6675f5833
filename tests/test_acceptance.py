"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.

Criteria 2 (shear(3)/shear(5) clause) and 6 encode targets that the physics
of the model cannot meet as literally stated; they are asserted faithfully
and report the measured values. Each criterion's failure message carries the
analysis of why its target is out of reach.
"""

import time
from dataclasses import replace

import numpy as np

from mechmbqc import dynamics as dyn
from mechmbqc import mbqc
from mechmbqc import optomech as om
from mechmbqc import states as st

from oracles import compose_oracle

GATE_SET = (
    mbqc.identity_program(),
    mbqc.fourier_program(),
    mbqc.shear_program(1.0),
    mbqc.shear_program(3.0),
    mbqc.shear_program(5.0),
)


def report(number, ok, detail):
    label = "PASS" if ok else "FAIL"
    print(f"[{label}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def standard_input(r_db=3.0):
    return st.squeeze_momentum(st.vacuum(1), 0, r_db)


def test_criterion_1_symplectic_decomposition_identity():
    t0 = time.time()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        lambdas = rng.uniform(-5.0, 5.0, size=4)
        diff = np.abs(mbqc.lambdas_to_symplectic(lambdas)
                      - compose_oracle(lambdas)).max()
        worst = max(worst, diff)
    named_ok = (
        np.allclose(mbqc.lambdas_to_symplectic((0, 0, 0, 0)), np.eye(2))
        and np.allclose(mbqc.lambdas_to_symplectic((1, 1, 1, 0)), mbqc.FOURIER)
        and np.allclose(mbqc.lambdas_to_symplectic((1, 0, 0, 0)),
                        mbqc.shear_matrix(1.0))
    )
    elapsed = time.time() - t0
    report(1, worst < 1e-12 and named_ok and elapsed < 1.0,
           f"decomposition identity max error {worst:.2e} over 1000 draws, "
           f"named gates ok={named_ok}, runtime {elapsed:.2f}s")


def test_criterion_2_projective_oracle_correctness():
    inp = standard_input()
    fids = {}
    for program in GATE_SET:
        out = mbqc.run_projective(program, [inp], 20.0)
        reference = st.GaussianState(
            mbqc.expected_output(program.target, inp.cov))
        fids[program.name] = st.fidelity(out, reference)

    monotone = True
    for program in GATE_SET:
        reference = st.GaussianState(
            mbqc.expected_output(program.target, inp.cov))
        values = [
            st.fidelity(mbqc.run_projective(program, [inp], r_db), reference)
            for r_db in (3.0, 6.0, 10.0, 15.0, 20.0)
        ]
        monotone &= all(b > a for a, b in zip(values, values[1:]))

    detail = ", ".join(f"{name}={fid:.5f}" for name, fid in fids.items())
    ok = monotone and all(fid > 0.999 for fid in fids.values())
    report(2, ok, f"20 dB fidelities [{detail}], monotone in r={monotone} "
                  "(shear(3)/shear(5) cannot reach 0.999 at 20 dB: the "
                  "measurement outcome leaks lambda^2 Var(q_in) of input "
                  "information past the finite anti-squeezed mask)")


def test_criterion_3_integrator_oracles():
    # Thermal relaxation against the exponential solution.
    gamma, nbar = 2.0, 1.5
    drift, diffusion = dyn.build_lyapunov(
        np.sqrt(gamma) * np.eye(2), (nbar + 0.5) * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    t_end = 1.0 / gamma
    traj = dyn.integrate(0.5 * np.eye(2), coeffs, t_end, dt=t_end / 500)
    decay = np.exp(-gamma * t_end)
    analytic = decay * 0.5 * np.eye(2) + (1 - decay) * (nbar + 0.5) * np.eye(2)
    thermal_err = np.abs(traj.covs[-1] - analytic).max()

    # Pure QND monitoring against the closed-form scalar Riccati solution.
    strength, eta, r_pm_db = 4.0, 0.9, 10.0
    r = r_pm_db * np.log(10.0) / 20.0
    sigma_m = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    c = np.zeros((2, 2))
    c[0, 0] = np.sqrt(strength)
    drift_t, diffusion_t, backaction = dyn.build_riccati(
        c, 0.5 * np.eye(2), sigma_m, eta=eta)
    sm_eff = sigma_m / eta + (1 - eta) / eta * np.eye(2)
    b = strength / (0.5 + sm_eff[1, 1])
    dp_rate = strength / 2.0 - strength / (0.5 + sm_eff[0, 0]) / 4.0
    v0, vp0 = 3.0, 1.0
    t_end = 2.0 / b
    traj = dyn.integrate(
        np.diag([v0, vp0]),
        dyn.EvolutionCoefficients(drift_t, diffusion_t, backaction),
        t_end, dt=t_end / 4000)
    riccati_err = max(
        abs(traj.covs[-1][0, 0] - v0 / (1 + b * v0 * t_end)),
        abs(traj.covs[-1][1, 1] - (vp0 + dp_rate * t_end)),
    )
    report(3, thermal_err < 1e-8 and riccati_err < 1e-8,
           f"thermal relaxation error {thermal_err:.2e}, "
           f"scalar Riccati error {riccati_err:.2e} (tolerance 1e-8)")


def test_criterion_4_close_to_ideal_convergence():
    schedule = om.MonitoringSchedule.equal(40e-6, 4)
    result = om.run_monitoring_protocol(
        mbqc.shear_program(1.0), om.params_set2(), schedule,
        samples_per_step=8)
    report(4, result.final_fidelity >= 0.99,
           f"Set 2 shear(1) fidelity {result.final_fidelity:.5f} "
           f"at {40:.0f} us equal steps (threshold 0.99)")


def test_criterion_5_realistic_regime_optimized():
    params = om.params_set1()
    _, res_shear = om.optimize_schedule(
        mbqc.shear_program(1.0), params,
        time_resolution=2e-6, max_step_duration=200e-6)
    _, res_cz = om.optimize_schedule(
        mbqc.cz_program(), params,
        time_resolution=2e-6, max_step_duration=200e-6)
    ok = res_shear.final_fidelity > 0.95 and res_cz.final_fidelity > 0.95
    report(5, ok,
           f"Set 1 optimized fidelities: shear(1)={res_shear.final_fidelity:.4f}, "
           f"CZ={res_cz.final_fidelity:.4f} at 3 dB cluster (threshold 0.95)")


def test_criterion_6_optimized_schedule_durations():
    targets_us = np.array([21.4, 21.2, 21.1, 21.1])
    params = replace(om.params_set1(), temperature_k=10.0)
    schedule, result = om.optimize_schedule(
        mbqc.identity_program(), params,
        time_resolution=0.5e-6, max_step_duration=80e-6)
    measured_us = np.array(schedule.durations) * 1e6
    within = np.abs(measured_us - targets_us) <= 0.15 * targets_us
    diffs = np.diff(result.fidelities)
    monotone = len(diffs) == 0 or diffs.min() >= -1e-6

    # Diagnostic: the target step durations are reproduced in scale at 10 mK,
    # where the thermal decoherence rate is commensurate with the
    # measurement rate; at a
    # literal 10 K it exceeds every information-gain rate in the model.
    diag_params = replace(om.params_set1(), temperature_k=10e-3)
    diag_schedule, _ = om.optimize_schedule(
        mbqc.identity_program(), diag_params,
        time_resolution=0.5e-6, max_step_duration=80e-6)
    diag_us = ", ".join(f"{t * 1e6:.1f}" for t in diag_schedule.durations)

    report(6, bool(within.all() and monotone),
           f"T=10 K optimized steps [us] "
           f"{', '.join(f'{t:.1f}' for t in measured_us)} vs targets "
           f"{', '.join(f'{t:.1f}' for t in targets_us)} +-15%, "
           f"monotone={monotone} "
           f"(at T=10 mK the optimizer yields [{diag_us}] us; a literal 10 K "
           f"bath decoheres faster than any measurement gain, so the "
           f"target durations are unreachable as stated)")


def test_criterion_7_noise_parameter_insensitivity():
    base = om.params_set1()
    schedule = om.MonitoringSchedule.equal(60e-6, 4)
    program = mbqc.shear_program(1.0)

    def final(params):
        return om.run_monitoring_protocol(
            program, params, schedule, samples_per_step=6).final_fidelity

    spreads = {}
    families = {
        "eta": [replace(base, eta=v) for v in (1.0, 0.9, 0.8)],
        "tau": [replace(base, tau=f * base.kappa) for f in (0.01, 0.05, 0.1)],
        "r_post_meas": [replace(base, r_post_meas_db=v) for v in (20.0, 10.0, 5.0)],
    }
    for name, variants in families.items():
        values = [final(p) for p in variants]
        spreads[name] = max(values) - min(values)
    detail = ", ".join(f"{k} spread {v:.4f}" for k, v in spreads.items())
    report(7, all(v < 0.02 for v in spreads.values()),
           f"final-fidelity spreads at 60 us steps: {detail} (threshold 0.02)")


def test_criterion_8_gate_insensitivity():
    schedule = om.MonitoringSchedule.equal(60e-6, 4)
    results = om.gate_comparison(om.params_set1(), schedule)
    finals = {name: res.final_fidelity for name, res in results.items()}
    spread = max(finals.values()) - min(finals.values())
    detail = ", ".join(f"{k}={v:.4f}" for k, v in finals.items())
    report(8, spread < 0.05,
           f"Set 1 final fidelities [{detail}], spread {spread:.4f} "
           "(threshold 0.05)")


def test_criterion_9_structural_properties():
    t0 = time.time()
    program = mbqc.shear_program(1.0)
    schedule = om.MonitoringSchedule.equal(60e-6, 4)
    result = om.run_monitoring_protocol(
        program, om.params_set2(), schedule,
        samples_per_step=25, keep_trajectories=True)

    worst_asym = 0.0
    min_nu = np.inf
    for traj in result.trajectories:
        for cov in traj.covs:
            worst_asym = max(worst_asym, np.abs(cov - cov.T).max())
            nu = st.symplectic_eigenvalues(cov)[0]
            min_nu = min(min_nu, nu)

    phases = program.pattern.phases
    decay_ratios = []
    for k, traj in enumerate(result.trajectories):
        norms = om.measured_node_decorrelation(traj, k, phi=phases[k])
        decay_ratios.append(norms[0] / norms[-1])
    elapsed = time.time() - t0

    ok = (worst_asym < 1e-12 and min_nu >= 0.5 - 1e-6
          and all(r >= 100.0 for r in decay_ratios) and elapsed < 60.0)
    report(9, ok,
           f"max asymmetry {worst_asym:.1e}, min symplectic eigenvalue "
           f"{min_nu:.9f} (floor {0.5 - 1e-6:.6f}), decorrelation ratios "
           f"{', '.join(f'{r:.0f}x' for r in decay_ratios)} (floor 100x), "
           f"runtime {elapsed:.1f}s")


def test_contour_note_coarse_grid_trends():
    # Companion to the criteria: on a coarse (gamma, T) grid the achievable
    # fidelity degrades monotonically along both axes and the mild corner
    # stays above 0.95.
    base = om.params_set1()
    program = mbqc.shear_program(1.0)
    schedule = om.MonitoringSchedule.equal(60e-6, 4)
    gammas = [0.0, 2 * np.pi * 8.0, 2 * np.pi * 80.0]
    temperatures = [1e-4, 1e-3, 1e-2]
    grid = np.empty((3, 3))
    for i, gamma in enumerate(gammas):
        for j, temperature in enumerate(temperatures):
            params = replace(base, gamma=gamma, temperature_k=temperature)
            grid[i, j] = om.run_monitoring_protocol(
                program, params, schedule, samples_per_step=6).final_fidelity
    non_increasing_gamma = np.all(np.diff(grid, axis=0) <= 1e-9)
    non_increasing_temp = np.all(np.diff(grid, axis=1) <= 1e-9)
    print("contour grid (rows gamma, cols T):")
    for row in grid:
        print("   ", " ".join(f"{v:.4f}" for v in row))
    assert grid[0, 0] > 0.95
    assert non_increasing_gamma and non_increasing_temp
