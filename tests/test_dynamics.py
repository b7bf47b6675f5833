"""Tests for the conditional covariance dynamics: coefficient builders
checked against hand computations, the exact propagator against closed-form
solutions and an independent RK4 integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy import linalg as sla

from mechmbqc import dynamics as dyn
from mechmbqc.states import GaussianState, symplectic_form, vacuum

from oracles import generic_solve_advance


def mode_coupling(rate):
    """2x2 coupling block of sqrt(rate) (X X_out + P P_out)."""
    return np.sqrt(rate) * np.eye(2)


def q_coupling(rate):
    """2x2 block coupling only the q quadrature, sqrt(rate) q Q_out."""
    c = np.zeros((2, 2))
    c[0, 0] = np.sqrt(rate)
    return c


# ---------------------------------------------------------------------------
# Lyapunov coefficients


def test_lyapunov_damped_mode_vacuum_bath():
    gamma = 2.0
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma), 0.5 * np.eye(2))
    assert_allclose(drift, -0.5 * gamma * np.eye(2), atol=1e-14)
    assert_allclose(diffusion, 0.5 * gamma * np.eye(2), atol=1e-14)


def test_lyapunov_damped_mode_thermal_bath():
    gamma, nbar = 1.3, 2.5
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma), (nbar + 0.5) * np.eye(2))
    assert_allclose(drift, -0.5 * gamma * np.eye(2), atol=1e-14)
    assert_allclose(diffusion, gamma * (nbar + 0.5) * np.eye(2), atol=1e-14)


def test_lyapunov_zero_coupling():
    drift, diffusion = dyn.build_lyapunov(np.zeros((4, 2)), 0.5 * np.eye(2))
    assert_allclose(drift, np.zeros((4, 4)))
    assert_allclose(diffusion, np.zeros((4, 4)))


def test_lyapunov_dimension_mismatch():
    with pytest.raises(ValueError):
        dyn.build_lyapunov(np.zeros((4, 2)), 0.5 * np.eye(4))


def test_add_system_hamiltonian_zero():
    drift = -np.eye(2)
    assert_allclose(dyn.add_system_hamiltonian(drift, np.zeros((2, 2))), drift)


def test_add_system_hamiltonian_harmonic_rotation():
    omega = 0.7
    h = omega * np.eye(2)
    out = dyn.add_system_hamiltonian(np.zeros((2, 2)), h)
    assert_allclose(out, omega * np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_add_system_hamiltonian_qnd_pattern():
    # Cavity X coupled to mechanical X at strength g: momenta pick up the
    # partner position, positions stay untouched.
    g = 1.7
    h = np.zeros((4, 4))
    h[0, 2] = h[2, 0] = g
    drift = dyn.add_system_hamiltonian(np.zeros((4, 4)), h)
    expected = np.zeros((4, 4))
    expected[1, 2] = -g
    expected[3, 0] = -g
    assert_allclose(drift, expected)


# ---------------------------------------------------------------------------
# Riccati coefficients


def test_riccati_hand_computation_equal_covariances():
    # sigma_m = sigma_B = I/2 and eta = 1 make (sigma_B + sigma_m)^-1 = I.
    c = mode_coupling(2.0)
    drift_t, diffusion_t, backaction = dyn.build_riccati(
        c, 0.5 * np.eye(2), 0.5 * np.eye(2), eta=1.0
    )
    omega = symplectic_form(1)
    drift, diffusion = dyn.build_lyapunov(c, 0.5 * np.eye(2))
    assert_allclose(drift_t, drift - 0.5 * omega @ c @ omega @ c.T, atol=1e-14)
    assert_allclose(
        diffusion_t, diffusion + 0.25 * omega @ c @ c.T @ omega, atol=1e-14
    )
    assert_allclose(backaction, c @ omega, atol=1e-14)


def test_riccati_low_efficiency_degrades_to_lyapunov():
    c = mode_coupling(1.0)
    sigma_m = dyn.homodyne_post_meas_cov(10.0)
    drift_t, diffusion_t, backaction = dyn.build_riccati(
        c, 0.5 * np.eye(2), sigma_m, eta=1e-9
    )
    drift, diffusion = dyn.build_lyapunov(c, 0.5 * np.eye(2))
    assert_allclose(drift_t, drift, atol=1e-6)
    assert_allclose(diffusion_t, diffusion, atol=1e-6)
    assert np.max(np.abs(backaction)) < 1e-4
    # The integrated evolutions agree over a couple of decay times.
    sigma0 = np.diag([3.0, 0.4])
    monitored = dyn.integrate(
        sigma0, dyn.EvolutionCoefficients(drift_t, diffusion_t, backaction),
        2.0, dt=1e-3)
    lyapunov = dyn.integrate(
        sigma0, dyn.EvolutionCoefficients(drift, diffusion), 2.0, dt=1e-3)
    assert np.max(np.abs(monitored.covs[-1] - lyapunov.covs[-1])) < 1e-6


def test_riccati_backaction_row_pattern_for_q_coupling():
    # A pure q Q coupling read out in the conjugate quadrature conditions q:
    # B has support only in the q row.
    sigma_m = 0.5 * np.diag([np.exp(2.0), np.exp(-2.0)])  # momentum-squeezed
    _, _, backaction = dyn.build_riccati(q_coupling(3.0), 0.5 * np.eye(2),
                                         sigma_m, eta=1.0)
    assert np.max(np.abs(backaction[1, :])) < 1e-14
    assert np.max(np.abs(backaction[0, :])) > 0.1


def test_riccati_rejects_singular_total_covariance():
    with pytest.raises(ValueError, match="positive definite"):
        dyn.build_riccati(mode_coupling(1.0), np.zeros((2, 2)),
                          np.zeros((2, 2)), eta=1.0)


def test_riccati_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        dyn.build_riccati(mode_coupling(1.0), 0.5 * np.eye(2),
                          0.5 * np.eye(2), eta=0.0)


def test_coefficients_without_monitored_channel_have_no_backaction():
    coupling = dyn.CouplingSpec(np.zeros((4, 4)), np.zeros((4, 0)),
                                np.zeros((4, 2)))
    baths = dyn.BathSpec(np.zeros((0, 0)), 0.5 * np.eye(2), np.zeros((0, 0)))
    coeffs = dyn.build_coefficients(coupling, baths)
    assert coeffs.backaction.shape == (4, 0)
    assert not np.any(coeffs.bbt)


def test_coefficient_only_quantities_are_cached_read_only():
    coeffs = random_physical_coefficients(7, 2)
    bbt = coeffs.bbt
    assert coeffs.bbt is bbt
    assert not bbt.flags.writeable
    assert np.array_equal(bbt, coeffs.backaction @ coeffs.backaction.T)


def test_coefficients_compose_additively():
    # build_coefficients must equal the manual sum of its three parts.
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    c_m = rng.normal(size=(4, 2))
    c_d = rng.normal(size=(4, 4))
    sigma_d = np.diag(rng.uniform(0.5, 3.0, size=4))
    sigma_m = dyn.homodyne_post_meas_cov(8.0)
    coupling = dyn.CouplingSpec(h, c_m, c_d)
    baths = dyn.BathSpec(0.5 * np.eye(2), sigma_d, sigma_m, eta=0.9)
    coeffs = dyn.build_coefficients(coupling, baths)

    a_lyap, d_lyap = dyn.build_lyapunov(c_d, sigma_d)
    a_ricc, d_ricc, backaction = dyn.build_riccati(c_m, 0.5 * np.eye(2),
                                                   sigma_m, eta=0.9)
    assert_allclose(coeffs.drift,
                    dyn.add_system_hamiltonian(a_lyap + a_ricc, h), atol=1e-12)
    assert_allclose(coeffs.diffusion, d_lyap + d_ricc, atol=1e-12)
    assert_allclose(coeffs.backaction, backaction, atol=1e-12)


# ---------------------------------------------------------------------------
# exact propagator


def test_integrate_matches_thermal_relaxation():
    gamma, nbar = 2.0, 1.5
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma),
                                          (nbar + 0.5) * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    t_end = 1.0 / gamma
    traj = dyn.integrate(0.5 * np.eye(2), coeffs, t_end, dt=t_end / 500)
    decay = np.exp(-gamma * t_end)
    expected = decay * 0.5 * np.eye(2) + (1 - decay) * (nbar + 0.5) * np.eye(2)
    assert np.max(np.abs(traj.covs[-1] - expected)) < 1e-8
    assert traj.times[-1] == pytest.approx(t_end)


def test_integrate_harmonic_rotation_preserves_purity():
    omega = 3.0
    drift = dyn.add_system_hamiltonian(np.zeros((2, 2)), omega * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, np.zeros((2, 2)))
    sigma0 = np.diag([1.0, 0.25])
    traj = dyn.integrate(sigma0, coeffs, 2.0, dt=1e-3, n_samples=50)
    for cov in traj.covs:
        state = GaussianState(cov)
        assert state.is_pure(atol=1e-6)
    # Quarter period swaps the quadratures.
    quarter = dyn.integrate(sigma0, coeffs, np.pi / (2 * omega), dt=1e-5)
    assert_allclose(quarter.covs[-1], np.diag([0.25, 1.0]), atol=1e-6)


def scalar_riccati_setup(strength, r_pm_db, eta):
    """Single mode with only its q quadrature coupled out and monitored.

    Reading out the conjugate quadrature of the output conditions q. The
    closed forms used as oracles:

        Var_q(t) = V0 / (1 + b V0 t),   b = strength / (1/2 + sm_pp)
        Var_p(t) = Vp0 + (strength/2 - strength * u_qq / 4) t

    with sm the eta-distorted post-measurement covariance and
    u_qq = 1 / (1/2 + sm_qq).
    """
    r = r_pm_db * np.log(10.0) / 20.0
    sigma_m = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    drift_t, diffusion_t, backaction = dyn.build_riccati(
        q_coupling(strength), 0.5 * np.eye(2), sigma_m, eta=eta
    )
    sm_eff = sigma_m / eta + (1 - eta) / eta * np.eye(2)
    b = strength / (0.5 + sm_eff[1, 1])
    u_qq = 1.0 / (0.5 + sm_eff[0, 0])
    dp_rate = strength / 2.0 - strength * u_qq / 4.0
    return dyn.EvolutionCoefficients(drift_t, diffusion_t, backaction), b, dp_rate


def test_integrate_matches_scalar_riccati_oracle():
    strength, v0, vp0 = 4.0, 3.0, 1.0
    coeffs, b, dp_rate = scalar_riccati_setup(strength, 10.0, 0.9)
    t_end = 2.0 / b
    traj = dyn.integrate(np.diag([v0, vp0]), coeffs, t_end, dt=t_end / 4000)
    assert abs(traj.covs[-1][0, 0] - v0 / (1 + b * v0 * t_end)) < 1e-8
    assert abs(traj.covs[-1][1, 1] - (vp0 + dp_rate * t_end)) < 1e-8
    assert abs(traj.covs[-1][0, 1]) < 1e-10


def test_monitored_variance_monotone_without_dissipators():
    coeffs, b, _ = scalar_riccati_setup(2.0, 12.0, 1.0)
    traj = dyn.integrate(np.diag([5.0, 1.0]), coeffs, 3.0 / b, dt=0.002 / b,
                         n_samples=100)
    variances = traj.covs[:, 0, 0]
    assert np.all(np.diff(variances) <= 1e-12)


def test_integrate_symmetry_and_physicality_every_sample():
    gamma, nbar = 1.0, 0.8
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma),
                                          (nbar + 0.5) * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    traj = dyn.integrate(0.5 * np.eye(2), coeffs, 3.0, dt=1e-3, n_samples=60)
    for cov in traj.covs:
        assert_allclose(cov, cov.T, atol=1e-14)
        assert GaussianState(cov).is_physical()


def test_integrate_rejects_bad_step():
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.0)


@pytest.mark.parametrize("t_total, dt, name", [(np.nan, 0.1, "t_total"),
                                               (np.inf, 0.1, "t_total"),
                                               (1.0, np.nan, "dt")])
def test_integrate_rejects_a_non_finite_horizon_or_step(t_total, dt, name):
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=f"{name} must be .* finite"):
        dyn.integrate(0.5 * np.eye(2), coeffs, t_total, dt=dt)


@pytest.mark.parametrize("n_samples", [1, 0, -3, 2.5, 3.0, True])
def test_integrate_sample_cap_must_be_an_integer_of_at_least_two(n_samples):
    # The cap counts both endpoints, so no grid can honour a cap below 2.
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError,
                       match=f"n_samples must be an integer of at least 2, got {n_samples!r}"):
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=n_samples)


def test_integrate_aborts_on_physicality_loss():
    # Negative-definite diffusion drains a thermal state below vacuum:
    # sigma(t) = (2 - t) I becomes unphysical after t = 1.5. The guard must
    # fire at the first sample past that point, t = 1.6, and not earlier.
    coeffs = dyn.EvolutionCoefficients(np.zeros((2, 2)), -np.eye(2))
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(2.0 * np.eye(2), coeffs, 3.0, dt=0.1, n_samples=31)
    assert info.value.t == pytest.approx(1.6)
    assert info.value.nu_min == pytest.approx(0.4)


def failing_propagator(monkeypatch, coeffs, failures):
    """Make the n-th call of ``coeffs.propagator.advance`` misbehave.

    ``failures`` maps a call number (1-based) to a function of the correctly
    advanced covariance that returns the sample to store or raises.
    """
    propagator = coeffs.propagator
    advance = propagator.advance
    calls = []

    def faulty(sigma, h):
        calls.append(h)
        result = advance(sigma, h)
        return failures.get(len(calls), lambda s: s)(result)

    monkeypatch.setattr(propagator, "advance", faulty)


def test_integrate_reports_non_finite_sample_at_its_time(monkeypatch):
    # The third of ten samples turns to NaN; every later sample inherits it.
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    failing_propagator(monkeypatch, coeffs, {3: lambda s: np.full_like(s, np.nan)})
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=11)
    assert info.value.t == pytest.approx(0.3)
    assert info.value.nu_min == -np.inf


def test_integrate_guards_samples_before_a_failed_solve(monkeypatch):
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))

    def singular(sigma):
        raise np.linalg.LinAlgError("Singular matrix")

    # Physical samples before the failure: the solver's error propagates.
    failing_propagator(monkeypatch, coeffs, {4: singular})
    with pytest.raises(np.linalg.LinAlgError):
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=11)

    # An unphysical sample before the failure is the first fault.
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    failing_propagator(monkeypatch, coeffs, {2: lambda s: 0.3 * np.eye(2), 4: singular})
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=11)
    assert info.value.t == pytest.approx(0.2)
    assert info.value.nu_min == pytest.approx(0.3)


def test_suggest_dt_resolves_fastest_scale():
    gamma = 50.0
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma), 0.5 * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    dt = dyn.grid_step_rule(coeffs, 1.0)(0.5 * np.eye(2))
    assert dt <= 1.0 / (20.0 * gamma / 2.0)


def one_shot_suggest_dt(coeffs, sigma0, horizon):
    """The grid step as it was computed in one pass per call, before the
    coefficient-only part moved into ``grid_step_rule``."""
    sigma = np.asarray(sigma0, dtype=float)
    rate = float(np.linalg.norm(coeffs.drift, 2))
    bbt = coeffs.bbt
    if np.any(bbt):
        cols = np.flatnonzero(np.abs(bbt).max(axis=0))
        a_diag = np.diag(coeffs.drift)
        d_diag = np.diag(coeffs.diffusion)
        window = np.minimum(horizon, 1.0 / np.maximum(-a_diag, 1.0 / horizon))
        growth = float(np.max(d_diag * window, initial=0.0))
        v_est = max(np.linalg.svd(sigma[:, cols], compute_uv=False).max() + growth, 1.0)
        rate += float(np.linalg.norm(bbt, 2)) * v_est
    if rate <= 0.0:
        return horizon
    return min(horizon, 1.0 / (dyn.DT_SAFETY * rate))


@settings(max_examples=30, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 3),
       log_horizon=hst.floats(-7.0, 1.0), monitored=hst.booleans())
def test_grid_step_rule_is_suggest_dt_for_every_covariance(seed, n_modes, log_horizon,
                                                           monitored):
    # One rule, built once, serves any number of covariances, and gives the
    # one-shot step of each bit for bit.
    coeffs = random_physical_coefficients(seed, n_modes)
    if not monitored:
        coeffs = dyn.EvolutionCoefficients(coeffs.drift, coeffs.diffusion)
    horizon = 10.0 ** log_horizon
    rule = dyn.grid_step_rule(coeffs, horizon)
    rng = np.random.default_rng(seed + 1)
    omega = symplectic_form(n_modes)
    for _ in range(3):
        # A random physical state: a symplectic map of a thermal state.
        m = rng.normal(size=(2 * n_modes, 2 * n_modes))
        s = sla.expm(omega @ (0.5 * (m + m.T)))
        nu = np.repeat(rng.uniform(0.5, 3.0, size=n_modes), 2)
        sigma = (s * nu) @ s.T
        dt = rule(sigma)
        assert dt == one_shot_suggest_dt(coeffs, sigma, horizon)
        assert 0.0 < dt <= horizon


def test_integrator_dt_refinement_converges():
    coeffs, b, _ = scalar_riccati_setup(3.0, 8.0, 0.95)
    t_end = 1.0 / b
    coarse = dyn.integrate(np.diag([4.0, 1.0]), coeffs, t_end, dt=t_end / 400)
    fine = dyn.integrate(np.diag([4.0, 1.0]), coeffs, t_end, dt=t_end / 800)
    assert np.max(np.abs(coarse.covs[-1] - fine.covs[-1])) < 1e-9


def test_propagator_reuses_one_flow_per_interval_length(monkeypatch):
    # Ten increments of one length cost a single matrix exponential, and the
    # exact flow composes: ten increments equal one interval ten times longer.
    coeffs, b, _ = scalar_riccati_setup(3.0, 8.0, 0.95)
    calls = []
    expm = dyn.sla.expm

    def counting_expm(matrix):
        calls.append(matrix)
        return expm(matrix)

    monkeypatch.setattr(dyn.sla, "expm", counting_expm)
    h = 0.1 / b
    sigma = np.diag([4.0, 1.0])
    for _ in range(10):
        sigma = dyn.integrate(sigma, coeffs, h, dt=h, n_samples=2).covs[-1]
    assert len(calls) == 1
    once = dyn.integrate(np.diag([4.0, 1.0]), coeffs, 10 * h, dt=10 * h,
                         n_samples=2).covs[-1]
    assert_allclose(sigma, once, rtol=1e-12)


def rk4_reference(sigma0, coeffs, t_total, n_steps):
    """Classical fixed-step RK4 on the covariance ODE: the independent
    oracle the exact propagator is checked against."""
    a, d, g = coeffs.drift, coeffs.diffusion, coeffs.bbt

    def rhs(s):
        return a @ s + s @ a.T + d - s @ g @ s

    h = t_total / n_steps
    sigma = np.array(sigma0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(sigma)
        k2 = rhs(sigma + 0.5 * h * k1)
        k3 = rhs(sigma + 0.5 * h * k2)
        k4 = rhs(sigma + h * k3)
        sigma = sigma + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return sigma


def random_physical_coefficients(seed, n_modes):
    """Coefficients of random physical channels, built through the public
    spec objects: a random Hamiltonian, one monitored channel read out by
    squeezed homodyne at efficiency eta, and thermal dissipative channels."""
    rng = np.random.default_rng(seed)
    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim))
    c_m = rng.normal(size=(dim, 2))
    c_d = 0.5 * rng.normal(size=(dim, dim))
    occupancies = rng.uniform(0.0, 2.0, size=n_modes)
    coupling = dyn.CouplingSpec(0.5 * (h + h.T), c_m, c_d)
    baths = dyn.BathSpec(
        sigma_monitored=0.5 * np.eye(2),
        sigma_dissipative=np.diag(np.repeat(occupancies + 0.5, 2)),
        sigma_post_meas=dyn.homodyne_post_meas_cov(rng.uniform(0.0, 15.0)),
        eta=rng.uniform(0.3, 1.0),
    )
    return dyn.build_coefficients(coupling, baths)


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 2),
       n_samples=hst.integers(2, 9))
def test_exact_propagator_matches_rk4_on_random_physical_channels(
        seed, n_modes, n_samples):
    coeffs = random_physical_coefficients(seed, n_modes)
    # Start from a random pure state, which any physical channel maps to a
    # physical state.
    squeezing = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=n_modes)
    sigma0 = 0.5 * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
    # A horizon of several rate times makes long sample intervals take
    # several substeps.
    rate = np.linalg.norm(coeffs.drift, 2) + np.linalg.norm(coeffs.bbt, 2)
    t_total = 4.0 / rate
    traj = dyn.integrate(sigma0, coeffs, t_total, dt=t_total / 64,
                         n_samples=n_samples)
    oracle, t_prev = sigma0, 0.0
    for t, cov in zip(traj.times, traj.covs):
        assert_allclose(cov, cov.T, rtol=0, atol=1e-14 * np.max(np.abs(cov)))
        assert GaussianState(cov).is_physical()
        n_steps = int(np.ceil(2000 * (t - t_prev) / t_total))
        if n_steps:
            oracle = rk4_reference(oracle, coeffs, t - t_prev, n_steps)
        t_prev = t
        assert np.max(np.abs(cov - oracle)) <= 1e-9 * np.max(np.abs(oracle))


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 4),
       substeps=hst.sampled_from([1, 2, 5]))
def test_propagator_substep_is_a_generic_solve(seed, n_modes, substeps):
    # numpy's solve and scipy's dgesv run the same LAPACK algorithm from two
    # OpenBLAS builds. They agree bit for bit up to 4 x 4 (and on the
    # monitored model's matrices, see test_optomech); on generic 6 x 6 and
    # 8 x 8 flows a few last bits differ, up to about 2e-11 relative after
    # four advances.
    coeffs = random_physical_coefficients(seed, n_modes)
    propagator = coeffs.propagator
    h = (substeps - 0.5) / propagator.rate
    assert propagator._flow(h)[0] == substeps
    squeezing = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=n_modes)
    sigma = reference = 0.5 * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
    for _ in range(4):
        sigma = propagator.advance(sigma, h)
        reference = generic_solve_advance(propagator, reference, h)
        if n_modes <= 2:
            assert np.array_equal(sigma, reference)
        else:
            assert np.max(np.abs(sigma - reference)) <= 1e-9 * np.max(np.abs(reference))


def test_propagator_raises_on_an_exactly_singular_substep():
    # Without drift or diffusion the flow over h = 1 is X = I + G sigma,
    # Y = sigma, with G = diag(1, 0); sigma = diag(-1, 1) zeroes X's first row.
    coeffs = dyn.EvolutionCoefficients(np.zeros((2, 2)), np.zeros((2, 2)),
                                       np.array([[1.0], [0.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        coeffs.propagator.advance(np.diag([-1.0, 1.0]), 1.0)


def test_trajectory_state_accessors():
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    traj = dyn.integrate(vacuum(1), coeffs, 1.0, dt=0.01, n_samples=5)
    assert len(traj) == len(traj.times) == len(traj.covs) == 5
    assert_allclose(traj.covs[0], 0.5 * np.eye(2))
    assert GaussianState(traj.covs[-1]).is_physical()
