"""Tests for the conditional covariance dynamics: coefficient builders
checked against hand computations, the exact propagator against closed-form
solutions and an independent RK4 integrator."""

import importlib.util
import math
import re
import sys
import threading
import time
import types
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy import linalg as sla

from mechmbqc import dynamics as dyn
from mechmbqc.states import GaussianState, symplectic_form, vacuum

from faults import fault_samples
from oracles import (
    doubled_map,
    expm_flow,
    generic_solve_advance,
    product_halvings,
    same_flow,
    substep_chain_advance,
)


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
    # Unmonitored channels alone give drift and diffusion; the backaction
    # defaults to an empty block, so the flow has no Riccati term.
    drift, diffusion = dyn.build_lyapunov(np.vstack([mode_coupling(2.0), np.zeros((2, 2))]),
                                          0.5 * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    assert coeffs.backaction.shape == (4, 0)
    assert not coeffs.backaction.flags.writeable
    assert coeffs.bbt.shape == (4, 4)
    assert not np.any(coeffs.bbt)


def test_coefficient_only_quantities_are_cached_read_only():
    coeffs = random_physical_coefficients(7, 2)
    bbt = coeffs.bbt
    assert coeffs.bbt is bbt
    assert not bbt.flags.writeable
    assert np.array_equal(bbt, coeffs.backaction @ coeffs.backaction.T)


def riccati_rhs(coeffs, sigma):
    """d sigma / dt of the covariance ODE with these coefficients."""
    a = coeffs.drift
    return a @ sigma + sigma @ a.T + coeffs.diffusion - sigma @ coeffs.bbt @ sigma


def test_coefficients_compose_additively():
    # The channels' coefficients summed into one ODE give the sum of their
    # separate right-hand sides: the Lyapunov part, the Riccati part and the
    # Hamiltonian's Omega H sigma + sigma (Omega H)^T.
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 4))
    h = 0.5 * (h + h.T)
    c_m = rng.normal(size=(4, 2))
    c_d = rng.normal(size=(4, 4))
    sigma_d = np.diag(rng.uniform(0.5, 3.0, size=4))
    sigma_m = dyn.homodyne_post_meas_cov(8.0)
    a_lyap, d_lyap = dyn.build_lyapunov(c_d, sigma_d)
    a_ricc, d_ricc, backaction = dyn.build_riccati(c_m, 0.5 * np.eye(2),
                                                   sigma_m, eta=0.9)
    coeffs = dyn.EvolutionCoefficients(dyn.add_system_hamiltonian(a_lyap + a_ricc, h),
                                       d_lyap + d_ricc, backaction)
    parts = [dyn.EvolutionCoefficients(a_lyap, d_lyap),
             dyn.EvolutionCoefficients(a_ricc, d_ricc, backaction),
             dyn.EvolutionCoefficients(dyn.add_system_hamiltonian(np.zeros((4, 4)), h),
                                       np.zeros((4, 4)))]
    s = rng.normal(size=(4, 4))
    sigma = s @ s.T + 0.5 * np.eye(4)
    assert_allclose(riccati_rhs(coeffs, sigma),
                    sum(riccati_rhs(part, sigma) for part in parts), atol=1e-12)
    # Dissipative channels add too: two pairs of inputs with independent
    # baths give the sum of each pair's coefficients.
    pairs = [dyn.build_lyapunov(c_d[:, k:k + 2], sigma_d[k:k + 2, k:k + 2]) for k in (0, 2)]
    assert_allclose(a_lyap, pairs[0][0] + pairs[1][0], atol=1e-12)
    assert_allclose(d_lyap, pairs[0][1] + pairs[1][1], atol=1e-12)


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


@pytest.mark.parametrize("n_samples", [1, 0, -3, 2.5, 3.0, True, np.int64(1), np.bool_(True)])
def test_integrate_sample_cap_must_be_an_integer_of_at_least_two(n_samples):
    # The cap counts both endpoints, so no grid can honour a cap below 2.
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match=re.escape(
            f"n_samples must be an integer of at least 2, got {n_samples!r}")):
        dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=n_samples)
    # A numpy integer is an integer, as it is for an index: the same run.
    want = dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=5)
    got = dyn.integrate(0.5 * np.eye(2), coeffs, 1.0, dt=0.1, n_samples=np.int64(5))
    assert np.array_equal(got.times, want.times) and np.array_equal(got.covs, want.covs)


def test_integrate_aborts_on_physicality_loss():
    # Negative-definite diffusion drains a thermal state below vacuum:
    # sigma(t) = (2 - t) I becomes unphysical after t = 1.5. The guard must
    # fire at the first sample past that point, t = 1.6, and not earlier.
    coeffs = dyn.EvolutionCoefficients(np.zeros((2, 2)), -np.eye(2))
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(2.0 * np.eye(2), coeffs, 3.0, dt=0.1, n_samples=31)
    assert info.value.t == pytest.approx(1.6)
    assert info.value.nu_min == pytest.approx(0.4)


def failing_propagator(monkeypatch, coeffs, clean, failures):
    """Make the samples of ``coeffs.propagator`` misbehave.

    ``failures`` maps a sample number of the clean trajectory ``clean``
    (1-based, in time order) to a function of the correctly advanced
    covariance that returns the sample to store or raises. Each sample is
    keyed on its clean value, whatever the order or the stack in which the
    samples are formed; those after a fault count on from it, as along the
    chain of a grid (:func:`faults.fault_samples`).
    """
    fault_samples(monkeypatch, clean.covs, failures, coeffs.propagator)


# A start that relaxes towards vacuum, so every sample of the grid below has a
# value of its own.
GRID_START = 2.0 * np.eye(2)


def grid_case():
    """Fresh coefficients and the clean run of ten samples on them that the
    fault tests below corrupt."""
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    return coeffs, dyn.integrate(GRID_START, coeffs, 1.0, dt=0.1, n_samples=11)


def test_integrate_reports_non_finite_sample_at_its_time(monkeypatch):
    # The third of ten samples turns to NaN; every later sample inherits it.
    coeffs, clean = grid_case()
    failing_propagator(monkeypatch, coeffs, clean, {3: lambda s: np.full_like(s, np.nan)})
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(GRID_START, coeffs, 1.0, dt=0.1, n_samples=11)
    assert info.value.t == pytest.approx(0.3)
    assert info.value.nu_min == -np.inf


def test_integrate_guards_samples_before_a_failed_solve(monkeypatch):
    coeffs, clean = grid_case()

    def singular(sigma):
        raise np.linalg.LinAlgError("Singular matrix")

    # Physical samples before the failure: the solver's error propagates.
    failing_propagator(monkeypatch, coeffs, clean, {4: singular})
    with pytest.raises(np.linalg.LinAlgError):
        dyn.integrate(GRID_START, coeffs, 1.0, dt=0.1, n_samples=11)

    # An unphysical sample before the failure is the first fault.
    coeffs, clean = grid_case()
    failing_propagator(monkeypatch, coeffs, clean,
                       {2: lambda s: 0.3 * np.eye(2), 4: singular})
    with pytest.raises(dyn.PhysicalityError) as info:
        dyn.integrate(GRID_START, coeffs, 1.0, dt=0.1, n_samples=11)
    assert info.value.t == pytest.approx(0.2)
    assert info.value.nu_min == pytest.approx(0.3)


def test_suggest_dt_resolves_fastest_scale():
    gamma = 50.0
    drift, diffusion = dyn.build_lyapunov(mode_coupling(gamma), 0.5 * np.eye(2))
    coeffs = dyn.EvolutionCoefficients(drift, diffusion)
    (dt,) = dyn._grid_steps(coeffs, 1.0, 0.5 * np.eye(2)[None])
    assert dt <= 1.0 / (20.0 * gamma / 2.0)


def one_shot_suggest_dt(coeffs, sigma0, horizon):
    """The grid step as it was computed in one pass per call, before the
    coefficient-only part moved into ``EvolutionCoefficients.rate_norms``."""
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
    # One call of the grid rule serves a stack of any number of covariances,
    # and gives the one-shot step of each bit for bit.
    coeffs = random_physical_coefficients(seed, n_modes)
    if not monitored:
        coeffs = dyn.EvolutionCoefficients(coeffs.drift, coeffs.diffusion)
    horizon = 10.0 ** log_horizon
    rng = np.random.default_rng(seed + 1)
    omega = symplectic_form(n_modes)
    sigmas = []
    for _ in range(3):
        # A random physical state: a symplectic map of a thermal state.
        m = rng.normal(size=(2 * n_modes, 2 * n_modes))
        s = sla.expm(omega @ (0.5 * (m + m.T)))
        nu = np.repeat(rng.uniform(0.5, 3.0, size=n_modes), 2)
        sigmas.append((s * nu) @ s.T)
    dts = dyn._grid_steps(coeffs, horizon, np.array(sigmas))
    assert len(dts) == len(sigmas)
    for sigma, dt in zip(sigmas, dts):
        assert dt == one_shot_suggest_dt(coeffs, sigma, horizon)
        assert 0.0 < dt <= horizon
    assert dyn._grid_steps(coeffs, horizon, np.empty((0, 2 * n_modes, 2 * n_modes))) == []


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
    expm = dyn._expm

    def counting_expm(scale, matrix, witnesses):
        calls.append(scale * matrix)
        return expm(scale, matrix, witnesses)

    monkeypatch.setattr(dyn, "_expm", counting_expm)
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
    def rhs(s):
        return riccati_rhs(coeffs, s)

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
    """Coefficients of random physical channels, composed from the public
    builders: a random Hamiltonian, one monitored channel read out by
    squeezed homodyne at efficiency eta, and thermal dissipative channels."""
    rng = np.random.default_rng(seed)
    dim = 2 * n_modes
    h = rng.normal(size=(dim, dim))
    c_m = rng.normal(size=(dim, 2))
    c_d = 0.5 * rng.normal(size=(dim, dim))
    occupancies = rng.uniform(0.0, 2.0, size=n_modes)
    sigma_post_meas = dyn.homodyne_post_meas_cov(rng.uniform(0.0, 15.0))
    a_lyap, d_lyap = dyn.build_lyapunov(c_d, np.diag(np.repeat(occupancies + 0.5, 2)))
    a_ricc, d_ricc, backaction = dyn.build_riccati(c_m, 0.5 * np.eye(2), sigma_post_meas,
                                                   eta=rng.uniform(0.3, 1.0))
    drift = dyn.add_system_hamiltonian(a_lyap + a_ricc, 0.5 * (h + h.T))
    return dyn.EvolutionCoefficients(drift, d_lyap + d_ricc, backaction)


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
    # A horizon of several rate times makes long sample intervals take the
    # doubled interval form.
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
    # h lambda <= 1 is one Davison-Maki step; a longer interval takes the
    # interval form, whose flow carries a post-map.
    assert (len(propagator._flow(h)) == 2) == (substeps == 1)
    squeezing = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=n_modes)
    sigma = reference = 0.5 * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
    for _ in range(4):
        sigma = propagator.advance(sigma, h)
        reference = generic_solve_advance(propagator, reference, h)
        if n_modes <= 2:
            assert np.array_equal(sigma, reference)
        else:
            assert np.max(np.abs(sigma - reference)) <= 1e-9 * np.max(np.abs(reference))


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 4),
       log_h_rate=hst.floats(np.log(0.5), np.log(1000.0)))
def test_propagator_matches_the_substep_chain_at_any_interval_length(
        seed, n_modes, log_h_rate):
    coeffs = random_physical_coefficients(seed, n_modes)
    propagator = coeffs.propagator
    h = np.exp(log_h_rate) / propagator.rate
    squeezing = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=n_modes)
    sigma0 = 0.5 * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
    sigma = propagator.advance(sigma0, h)
    reference = substep_chain_advance(propagator, sigma0, h)
    # Both are the exact flow, rounded along different paths; the chain's
    # ceil(h lambda) solves lose digits in proportion to the result's
    # condition number: at most 34 eps cond = 7.5e-15 cond relative in
    # 10,200 draws of these coefficients up to h lambda = 1000.
    scale = np.linalg.cond(reference) * np.max(np.abs(reference))
    assert np.max(np.abs(sigma - reference)) <= 5e-14 * scale
    _, slope, *post = propagator._flow(h)
    if post:
        for w in (post[0], slope[:2 * n_modes]):
            assert np.array_equal(w, w.T)
            assert np.linalg.eigvalsh(w).min() >= -1e-14 * np.max(np.abs(w))


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 5),
       h_rate=hst.floats(0.05, 1.0), doublings=hst.sampled_from([1, 2, 3, 40]))
def test_doubled_map_is_the_plain_formulas_bit_for_bit(seed, n_modes, h_rate, doublings):
    # The kernel solves in preallocated Fortran-ordered buffers; the oracle
    # builds a fresh right-hand side and identity for every solve.
    propagator = random_physical_coefficients(seed, n_modes).propagator
    phi = sla.expm((h_rate / propagator.rate) * propagator.hamiltonian)
    got = dyn._doubled_map(phi.copy(), 2 * n_modes, doublings)
    want = doubled_map(phi.copy(), 2 * n_modes, doublings)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()  # every bit, the sign of zeros too


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 5),
       h_rates=hst.lists(hst.floats(0.05, 1.0), min_size=1, max_size=6),
       doublings=hst.sampled_from([1, 2, 3, 40]))
def test_a_stack_of_doubled_maps_is_the_plain_formulas_bit_for_bit(seed, n_modes, h_rates,
                                                                    doublings):
    # Each flow of a stack, of coefficients of its own, has the bits of the
    # oracle's lone build.
    phis = []
    for k, h_rate in enumerate(h_rates):
        propagator = random_physical_coefficients(seed + k, n_modes).propagator
        phis.append(sla.expm((h_rate / propagator.rate) * propagator.hamiltonian))
    got = dyn._doubled_map(np.stack(phis), 2 * n_modes, doublings)
    assert all(part.shape == (len(phis), 2 * n_modes, 2 * n_modes) for part in got)
    for k, phi in enumerate(phis):
        want = doubled_map(phi.copy(), 2 * n_modes, doublings)
        for g, w in zip(got, want, strict=True):
            assert g[k].dtype == w.dtype and g[k].tobytes() == w.tobytes()


def test_prepared_chunk_flows_are_the_lazy_flows_and_fill_the_slot(monkeypatch):
    # Four steps, two of one halvings count, one of another and one of none:
    # each of the first three has its chunk flow written into its slot, which
    # the step's first lookup then takes.
    stacks, doubled_map_kernel = [], dyn._doubled_map

    def spy(phi, d, doublings):
        stacks.append((phi.shape, doublings))
        return doubled_map_kernel(phi, d, doublings)

    monkeypatch.setattr(dyn, "_doubled_map", spy)
    prepared = [random_physical_coefficients(seed, 3) for seed in range(4)]
    lazy = [random_physical_coefficients(seed, 3) for seed in range(4)]
    h_rates = (6.0, 7.0, 40.0, 0.5)  # 3, 3, 6 and 0 halvings
    steps = [(coeffs, dyn.CHUNKS_PER_STEP * h_rate / coeffs.propagator.rate)
             for coeffs, h_rate in zip(prepared, h_rates)]
    dyn.prepare_steps(steps)
    assert stacks == [((2, 12, 12), 3), ((1, 12, 12), 6)]
    for (coeffs, t_mon), other in zip(steps, lazy):
        propagator, h = coeffs.propagator, t_mon / dyn.CHUNKS_PER_STEP
        prepared, held = propagator._last
        assert (prepared == h) == bool(dyn._halvings(h, propagator.rate))
        flow = propagator._flow(h)
        assert held is None or flow is held
        assert same_flow(flow, other.propagator._flow(h))
        assert same_flow(flow, expm_flow(propagator, h))


def test_prepare_steps_skips_a_propagator_whose_slot_holds_the_chunk_length():
    # A slot that holds another length is overwritten, one that holds the
    # chunk length keeps its flow.
    held, other = random_physical_coefficients(5, 2), random_physical_coefficients(6, 2)
    t_mon = dyn.CHUNKS_PER_STEP * 8.0 / held.propagator.rate
    h = t_mon / dyn.CHUNKS_PER_STEP
    flow = held.propagator._flow(h)
    other.propagator.advance(0.5 * np.eye(4), 1e-3)
    dyn.prepare_steps([(held, t_mon), (other, t_mon)])
    assert held.propagator._last[0] == h and held.propagator._last[1] is flow
    assert other.propagator._last[0] == h
    assert same_flow(other.propagator._last[1], expm_flow(other.propagator, h))


def test_prepare_steps_never_raises_and_leaves_what_it_cannot_build_to_the_step(monkeypatch):
    # Bad lengths, a propagator that cannot be built and a stack whose
    # doubling fails are each left alone; the step then raises as ever.
    good = random_physical_coefficients(7, 2)
    broken = dyn.EvolutionCoefficients(np.full((2, 2), np.nan), np.eye(2))
    t_mon = dyn.CHUNKS_PER_STEP * 8.0 / good.propagator.rate
    steps = [(good, math.nan), (good, -t_mon), (good, math.inf), (broken, t_mon)]
    dyn.prepare_steps(steps)
    assert good.propagator._last == (None, None)
    with pytest.raises(np.linalg.LinAlgError):
        dyn.sample_step(0.5 * np.eye(2), broken, t_mon, 2, 0.0)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix in a doubling")

    monkeypatch.setattr(dyn, "_doubled_map", singular)
    dyn.prepare_steps([(good, t_mon)])
    assert good.propagator._last == (None, None)
    with pytest.raises(np.linalg.LinAlgError, match="in a doubling"):
        dyn.sample_step(0.5 * np.eye(4), good, t_mon, 2, 0.0)


@pytest.mark.parametrize("n_modes", [1, 3, 6])
def test_propagator_hamiltonian_is_the_block_matrix_and_read_only(n_modes):
    coeffs = random_physical_coefficients(n_modes, n_modes)
    a = coeffs.drift
    hamiltonian = coeffs.propagator.hamiltonian
    want = np.block([[-a.T, coeffs.bbt], [coeffs.diffusion, a]])
    assert hamiltonian.shape == want.shape and hamiltonian.tobytes() == want.tobytes()
    assert not hamiltonian.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hamiltonian[0, 0] = 1.0


def test_propagator_advances_with_one_solve_and_one_expm_per_length(monkeypatch):
    # An advance is one dgesv at any h lambda; a long interval's map is built
    # once per length, with one expm, when the length is first used.
    propagator = random_physical_coefficients(0, 3).propagator
    solves, exponentials = [], []
    dgesv, expm = dyn.dgesv, dyn._expm

    def counting_dgesv(*args, **kwargs):
        solves.append(None)
        return dgesv(*args, **kwargs)

    def counting_expm(scale, matrix, witnesses):
        exponentials.append(scale * matrix)
        return expm(scale, matrix, witnesses)

    monkeypatch.setattr(dyn, "dgesv", counting_dgesv)
    monkeypatch.setattr(dyn, "_expm", counting_expm)
    sigma = 0.5 * np.eye(6)
    for h_rate in (0.5, 8.0, 700.0):
        h = h_rate / propagator.rate
        sigma = propagator.advance(sigma, h)
        before = len(solves)
        for _ in range(3):
            sigma = propagator.advance(sigma, h)
        assert len(solves) - before == 3
    assert len(exponentials) == 3


@pytest.mark.parametrize("h", [math.nan, -1e-6, math.inf])
def test_propagator_rejects_an_interval_that_is_not_finite_and_non_negative(h):
    # NaN would give an all-NaN covariance, a negative h runs the flow
    # backwards to an unphysical state, and inf leaked a RuntimeWarning.
    propagator = random_physical_coefficients(0, 3).propagator
    sigma = 0.5 * np.eye(6)
    propagator.advance(sigma, 1e-3)  # a flow in the slot does not let h through
    flow = propagator._last[1]
    with pytest.raises(ValueError, match="finite and non-negative"):
        propagator.advance(sigma, h)
    with pytest.raises(ValueError, match="finite and non-negative"):
        propagator.sample(sigma, h, np.empty((3, 6, 6)))
    # The rejected h left the slot as it was.
    assert propagator._last[0] == 1e-3 and propagator._last[1] is flow
    assert propagator._flow(1e-3) is flow


def test_propagator_over_a_zero_interval_gives_back_sigma():
    # A chunk's remainder interval can round to 0; the flow is then the identity.
    propagator = random_physical_coefficients(1, 3).propagator
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6))
    sigma = 0.5 * np.eye(6) + m @ m.T
    assert propagator.advance(sigma, 0.0).tobytes() == sigma.tobytes()


@pytest.mark.parametrize("halvings", [1, 2, 7, 40, 200, 1000])
def test_flow_of_a_long_interval_is_the_expm_flow_bit_for_bit(halvings):
    # h lambda = 0.75 2^k is exponentiated at 0.75 and doubled k times.
    propagator = random_physical_coefficients(halvings, 3).propagator
    h = math.ldexp(0.75, halvings) / propagator.rate
    want = expm_flow(propagator, h)
    assert want[2] is not None and same_flow(propagator._flow(h), want)


def test_a_propagator_keeps_its_last_flow_and_rebuilds_an_evicted_one_bit_for_bit():
    # The slot keeps the flow of the last length used; another length evicts
    # it, and its flow is then built again, the same.
    propagator = random_physical_coefficients(2, 3).propagator
    for h_rate in (0.5, 8.0, 700.0):
        h = h_rate / propagator.rate
        first = propagator._flow(h)
        assert propagator._flow(h) is first
        assert propagator._last[0] == h and propagator._last[1] is first
        propagator._flow(2 * h)  # evicts h
        rebuilt = propagator._flow(h)
        assert rebuilt is not first and same_flow(rebuilt, first)


def test_the_cached_flow_holds_no_reference_to_its_propagator():
    # The slot holds plain arrays, so dropping a propagator frees it at once.
    propagator = random_physical_coefficients(2, 3).propagator
    flow = propagator._flow(1e-3)
    ref = weakref.ref(propagator)
    del propagator
    assert ref() is None and all(isinstance(part, np.ndarray) for part in flow)


class YieldingPropagator(dyn.Propagator):
    """A propagator whose slot lets other threads run at every read, so that
    one may replace it between two reads of one lookup."""

    @property
    def _last(self):
        time.sleep(0)
        return self.__dict__["_last"]

    @_last.setter
    def _last(self, value):
        self.__dict__["_last"] = value


def test_one_propagator_serves_two_threads_bit_for_bit(monkeypatch):
    # Two threads sample one propagator at once, each at two interval lengths
    # of its own in turn, lone and as lockstep chains, so the slot changes
    # hands within and between threads. Each thread's stack has the bits of
    # a lone run on a propagator of its own. Every solve and every read of
    # the slot lets the other thread run.
    lengths = [(0.5, 8.0), (8.0, 700.0)]
    solve = dyn._solve

    def yielding_solve(a, b):
        time.sleep(0)
        return solve(a, b)

    monkeypatch.setattr(dyn, "_solve", yielding_solve)
    sigma = 0.5 * np.eye(6)

    def run(propagator, h_rates, rounds=25):
        h, g = (h_rate / propagator.rate for h_rate in h_rates)
        out = np.empty((rounds, 16, 6, 6))
        for k in range(rounds):
            propagator.sample(sigma, h, out[k, :4])
            propagator.sample(sigma, g, out[k, 4:8])
            dyn.sample_chains([(propagator, sigma, h, 8, 4), (propagator, sigma, g, 12, 4)],
                              out[k])
        return out

    want = [run(random_physical_coefficients(3, 3).propagator, h_rates) for h_rates in lengths]
    shared = YieldingPropagator(random_physical_coefficients(3, 3))
    barrier = threading.Barrier(2)

    def worker(h_rates):
        barrier.wait()
        return run(shared, h_rates)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(worker, lengths, timeout=300))
    finally:
        sys.setswitchinterval(switch)
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()


# Non-negative finite floats, subnormals included, and the edge values
# drawn every run: zero, exact powers of two from the smallest subnormal to
# the largest, and products that round to 2^k or overflow to inf.
HALVING_EDGES = [0.0, 5e-324, 2.0**-1022, 2.0**-1074 * 3, 0.5, 1.0, 2.0, 2.0**1023,
                 math.nextafter(2.0, 0.0), math.nextafter(1.0, 2.0), 1e-300, 1e300,
                 sys.float_info.max]


@settings(max_examples=500, deadline=None)
@given(h=hst.one_of(hst.sampled_from(HALVING_EDGES), hst.floats(0.0, allow_infinity=False)),
       rate=hst.one_of(hst.sampled_from(HALVING_EDGES), hst.floats(0.0, allow_infinity=False)))
def test_halvings_from_exponents_equal_those_of_the_rounded_product(h, rate):
    assert dyn._halvings(h, rate) == product_halvings(h, rate)


@pytest.mark.parametrize("h, rate, want", [
    (0.0, 1e300, 0), (1e300, 0.0, 0), (0.0, 0.0, 0),
    (5e-324, 5e-324, 0), (1e-200, 1e-200, 0), (5e-324, 2.0**1023, 0),
    (1.0, 1.0, 0), (2.0, 1.0, 1), (2.0, 2.0, 2), (2.0**-3, 2.0**10, 7),
    (math.nextafter(1.0, 2.0), 1.0, 1), (3.0, 1.0, 2),
    (1e300, 1e300, 1994), (sys.float_info.max, sys.float_info.max, 2048),
])
def test_halvings_at_zero_subnormals_powers_of_two_and_overflow(h, rate, want):
    # 1e300 * 1e300 = 1e600 lies in (2^1993, 2^1994]; max * max in (2^2047, 2^2048].
    assert dyn._halvings(h, rate) == product_halvings(h, rate) == want


def generic_matrix(rng, n, norm):
    """A random n x n matrix of 1-norm ``norm``, non-zero everywhere."""
    a = rng.normal(size=(n, n))
    a[a == 0.0] = 1.0
    return a * (norm / np.linalg.norm(a, 1))


@settings(max_examples=150, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 24),
       log_norm=hst.floats(-4.0, 3.0), scale=hst.sampled_from([1.0, 2.0**-5, 1e-3]))
def test_expm_is_scipy_expm_bit_for_bit_on_generic_matrices(seed, n, log_norm, scale):
    # 1-norms from 1e-4 to 1e3 reach every Pade order 3-13 and up to about
    # 12 squarings (see the next test).
    a = generic_matrix(np.random.default_rng(seed), n, 10.0 ** log_norm / scale)
    got = dyn._expm(scale, a, dyn._off_diagonal_witnesses(a))
    want = sla.expm(scale * a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def pade_structure(a):
    """``(order, squarings)`` that scipy's kernel picks for ``a``."""
    work = np.empty((5, *a.shape))
    work[0] = a
    return tuple(int(v) for v in dyn.pick_pade_structure(work))


@pytest.mark.skipif(dyn.pick_pade_structure is None, reason="scipy has no Pade kernels")
def test_expm_is_scipy_expm_bit_for_bit_at_every_pade_order_and_squaring():
    rng = np.random.default_rng(5)
    structures = set()
    for norm in np.geomspace(1e-4, 1e3, 36):
        for n in (2, 12, 24):
            a = generic_matrix(rng, n, norm)
            structures.add(pade_structure(a))
            got = dyn._expm(1.0, a, dyn._off_diagonal_witnesses(a))
            assert got.tobytes() == sla.expm(a).tobytes()
    assert {order for order, _ in structures} == {3, 5, 7, 9, 13}
    assert max(squarings for _, squarings in structures) >= 8


def counting_scipy_expm(monkeypatch):
    """Count calls of ``scipy.linalg.expm`` made through ``dynamics``."""
    calls, expm = [], sla.expm

    def counted(matrix):
        calls.append(matrix)
        return expm(matrix)

    monkeypatch.setattr(dyn.sla, "expm", counted)
    return calls


@pytest.mark.parametrize("kind", ["lower", "upper", "diagonal"])
@pytest.mark.parametrize("norm", [0.1, 50.0])
def test_expm_leaves_triangular_and_diagonal_matrices_to_scipy(monkeypatch, kind, norm):
    # scipy treats these in branches of their own, which the kernels skip;
    # at norm 50 the triangular branch recomputes the diagonal per squaring.
    a = generic_matrix(np.random.default_rng(2), 8, norm)
    a = {"lower": np.tril(a), "upper": np.triu(a), "diagonal": np.diag(np.diag(a))}[kind]
    want = sla.expm(a)
    calls = counting_scipy_expm(monkeypatch)
    got = dyn._expm(1.0, a, dyn._off_diagonal_witnesses(a))
    assert len(calls) == 1 and got.tobytes() == want.tobytes()


def test_expm_leaves_a_matrix_whose_scaled_witness_underflows_to_scipy(monkeypatch):
    # Below the diagonal the largest entry is 1e-300, so at scale 1e-30 every
    # one of them underflows to 0: scale a is upper triangular.
    a = generic_matrix(np.random.default_rng(3), 6, 6.0)
    below = np.tril_indices(6, -1)
    a[below] *= 1e-300 / np.abs(a[below]).max()
    witnesses = dyn._off_diagonal_witnesses(a)
    assert witnesses[0] == 1e-300 and 1e-30 * witnesses[0] == 0.0
    want = sla.expm(1e-30 * a)
    calls = counting_scipy_expm(monkeypatch)
    assert dyn._expm(1e-30, a, witnesses).tobytes() == want.tobytes()
    assert len(calls) == 1
    # One step up the witness is the smallest subnormal: scale a is generic
    # then, with one non-zero entry below the diagonal, and takes the kernels.
    a = generic_matrix(np.random.default_rng(3), 6, 6.0)
    a[np.tril_indices(6, -1)] = 0.25
    a[3, 1] = 1.0
    scale = 5e-324
    assert np.count_nonzero(np.tril(scale * a, -1)) == 1
    monkeypatch.undo()
    want = sla.expm(scale * a)
    calls = counting_scipy_expm(monkeypatch)
    assert dyn._expm(scale, a, dyn._off_diagonal_witnesses(a)).tobytes() == want.tobytes()
    assert len(calls) == (dyn._expm is dyn._scipy_expm)


@pytest.mark.skipif(dyn._expm is not dyn._pade_expm, reason="the direct kernels are off")
@pytest.mark.parametrize("failure", ["order", "info"])
def test_expm_leaves_a_kernel_failure_to_scipy(monkeypatch, failure):
    # A negative Pade order or a non-zero info is a failed allocation or a
    # LAPACK error; scipy's expm then raises its own error.
    if failure == "order":
        monkeypatch.setattr(dyn, "pick_pade_structure", lambda work: (-1, 0))
    else:
        monkeypatch.setattr(dyn, "pade_UV_calc", lambda work, order: -11)
    a = generic_matrix(np.random.default_rng(6), 8, 3.0)
    want = sla.expm(a)
    calls = counting_scipy_expm(monkeypatch)
    assert dyn._expm(1.0, a, dyn._off_diagonal_witnesses(a)).tobytes() == want.tobytes()
    assert len(calls) == 1


@pytest.mark.skipif(tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 17),
                    reason="the direct kernels were verified on scipy 1.17")
def test_flows_are_built_by_the_direct_pade_kernels():
    assert dyn._expm is dyn._pade_expm


def fresh_dynamics(monkeypatch, kernels):
    """A second copy of ``mechmbqc.dynamics``, imported while scipy's Pade
    kernel module is ``kernels`` (``None``: the import fails)."""
    monkeypatch.setitem(sys.modules, "scipy.linalg._matfuncs_expm", kernels)
    spec = importlib.util.spec_from_file_location("mechmbqc._dynamics_copy", dyn.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def mismatching_kernels():
    """scipy's kernels, with the last bit of one Pade result flipped."""
    def pade_UV_calc(work, order):
        info = dyn.pade_UV_calc(work, order)
        work[0, 0, 0] = np.nextafter(work[0, 0, 0], np.inf)
        return info

    return types.SimpleNamespace(pick_pade_structure=dyn.pick_pade_structure,
                                 pade_UV_calc=pade_UV_calc)


def old_convention_kernels():
    """Kernels with another call convention: ``pade_UV_calc(Am, n, m)``."""
    def pade_UV_calc(work, n, order):
        raise AssertionError("never reached")

    return types.SimpleNamespace(pick_pade_structure=dyn.pick_pade_structure,
                                 pade_UV_calc=pade_UV_calc)


@pytest.mark.parametrize("kernels", [None, mismatching_kernels, old_convention_kernels],
                         ids=["missing", "mismatching", "old-convention"])
def test_expm_falls_back_to_scipy_expm_when_the_kernels_fail_the_import_probe(
        monkeypatch, kernels):
    module = fresh_dynamics(monkeypatch, kernels and kernels())
    assert module._expm is module._scipy_expm
    coeffs = random_physical_coefficients(4, 3)
    propagator = module.EvolutionCoefficients(
        coeffs.drift, coeffs.diffusion, coeffs.backaction).propagator
    for h_rate in (0.5, 8.0, 700.0):
        h = h_rate / propagator.rate
        want = expm_flow(coeffs.propagator, h)
        assert same_flow(propagator._flow(h), want)
        assert same_flow(coeffs.propagator._flow(h), want)


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 4),
       h_rate=hst.sampled_from([0.5, 8.0, 700.0]))
def test_sample_is_chained_one_sample_calls_bit_for_bit(seed, n_modes, h_rate):
    # h lambda = 0.5 is one Davison-Maki step, 8 and 700 the interval form.
    propagator = random_physical_coefficients(seed, n_modes).propagator
    h = h_rate / propagator.rate
    squeezing = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=n_modes)
    sigma = 0.5 * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
    out = np.empty((6, 2 * n_modes, 2 * n_modes))
    assert propagator.sample(sigma, h, out) is out
    chained = []
    for _ in range(6):
        sigma = propagator.advance(sigma, h)
        chained.append(sigma)
    assert np.array_equal(out, chained)


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 3),
       chains=hst.lists(hst.tuples(hst.integers(0, 15), hst.sampled_from([0.5, 8.0]),
                                   hst.integers(0, 2), hst.integers(0, 2)),
                        min_size=1, max_size=8)
       .filter(lambda chains: len(chains) == 1 or len({c[0] for c in chains}) > 1))
def test_sample_chains_is_one_sample_call_per_chain_bit_for_bit(seed, n_modes, chains):
    # Chains of unequal counts, on one of three propagators, h lambda = 0.5
    # (Davison-Maki) or 8 (the interval form) and 0 to 2 entries between
    # them: the lockstep writes the bits, signs of zeros included, of one
    # sample call per chain in time order.
    propagators = [random_physical_coefficients(seed + k, n_modes).propagator for k in range(3)]
    rng = np.random.default_rng(seed + 3)
    dim, first, args = 2 * n_modes, 0, []
    for count, h_rate, gap, which in chains:
        squeezing = rng.uniform(-1.0, 1.0, size=n_modes)
        thermal = rng.uniform(1.0, 2.0)  # a squeezed thermal state
        sigma = 0.5 * thermal * np.diag(np.exp(np.ravel([[r, -r] for r in squeezing])))
        propagator = propagators[which]
        args.append((propagator, sigma, h_rate / propagator.rate, first + gap, count))
        first += gap + count
    want, got = np.full((2, first, dim, dim), 7.0)
    for propagator, sigma, h, start, count in args:
        propagator.sample(sigma, h, want[start:start + count])
    assert dyn.sample_chains(args, got) is got
    assert got.tobytes() == want.tobytes()


def test_a_davison_maki_chain_keeps_the_signs_of_its_exact_zeros(monkeypatch):
    # A Davison-Maki flow with X = -I and Y = I gives Z = -I / 2, whose zeros
    # are negative, so each sample is -I with negative zeros. Taken as the
    # interval form with Psi = I and W_c = 0, the lockstep would add W_c and
    # turn them positive.
    flow = np.vstack([-np.eye(2), 0.5 * np.eye(2)]), np.zeros((4, 2))
    monkeypatch.setattr(dyn, "_flow", lambda *args: flow)
    propagator = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2)).propagator
    want, got = np.full((2, 8, 2, 2), 7.0)
    chains = [(propagator, GRID_START, 0.1, 0, 3), (propagator, GRID_START, 0.2, 4, 3)]
    for _, sigma, h, first, count in chains:
        propagator.sample(sigma, h, want[first:first + count])
    dyn.sample_chains(chains, got)
    assert np.signbit(want[[0, 4], 0, 1]).all()
    assert got.tobytes() == want.tobytes()


def test_an_earlier_chunk_failing_later_takes_over_a_later_chunk_failing_earlier(
        monkeypatch):
    # Chunk 5's first interior solve fails, and then, in the same lockstep,
    # chunk 2's sixth. Chunk 2's failure is the earlier in time: it is raised,
    # after the one guard of the samples before it.
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    clean = dyn.sample_step(GRID_START, coeffs, 8.0, 120, 0.0)
    ends = np.searchsorted(clean.times, np.arange(1.0, 9.0))
    first_2, first_5 = ends[1] + 1, ends[4] + 1
    assert ends[2] - first_2 > 5 and clean.times[ends[7]] == 8.0

    def failure(chunk):
        def fail(sigma):
            raise np.linalg.LinAlgError(f"chunk {chunk}")
        return fail

    guarded, check = [], dyn.check_samples

    def spy(times, covs):
        guarded.append(len(times))
        check(times, covs)

    monkeypatch.setattr(dyn, "check_samples", spy)
    fault_samples(monkeypatch, clean.covs, {first_2 + 5: failure(2), first_5: failure(5)},
                  coeffs.propagator)
    with pytest.raises(np.linalg.LinAlgError, match="chunk 2") as info:
        dyn.sample_step(GRID_START, coeffs, 8.0, 120, 0.0)
    assert info.value.samples_written == first_2 + 5
    assert guarded == [first_2 + 4]


def test_sample_chains_reports_a_failed_flow_build_at_its_chain(monkeypatch):
    # The flow of the later chain fails to build: the earlier chain is
    # written, and the failure is that chain's first sample.
    propagator = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2)).propagator
    flow = dyn._flow

    def failing_flow(hamiltonian, rate, witnesses, h):
        if h == 0.3:
            raise np.linalg.LinAlgError("Singular matrix")
        return flow(hamiltonian, rate, witnesses, h)

    monkeypatch.setattr(dyn, "_flow", failing_flow)
    want, got = np.zeros((2, 9, 2, 2))
    propagator.sample(GRID_START, 0.1, want[1:4])
    with pytest.raises(np.linalg.LinAlgError) as info:
        dyn.sample_chains([(propagator, GRID_START, 0.1, 1, 3),
                           (propagator, GRID_START, 0.3, 5, 3)], got)
    assert info.value.samples_written == 5
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("run", [
    lambda coeffs: dyn.sample_step(GRID_START, coeffs, 16.0, 2, 0.0),
    lambda coeffs: dyn.sample_step(GRID_START, coeffs, 16.0, 120, 0.0),
    lambda coeffs: dyn.integrate(GRID_START, coeffs, 4.0, dt=0.5),
], ids=["step-of-2", "step-of-120", "integrate"])
def test_a_failed_flow_build_raises_its_own_linalg_error(monkeypatch, run):
    # The chunk ends' interval, h lambda = 2, takes the interval form, whose
    # doubling fails: the sampler raises that error, after the samples
    # before it, not an AttributeError.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix in a doubling")

    monkeypatch.setattr(dyn, "_doubled_map", singular)
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    assert coeffs.propagator.rate == 1.0
    with pytest.raises(np.linalg.LinAlgError, match="in a doubling"):
        run(coeffs)


def test_propagator_raises_on_an_exactly_singular_substep():
    # Without drift or diffusion the flow over h = 1 is X = I + G sigma,
    # Y = sigma, with G = diag(1, 0); sigma = diag(-1, 1) zeroes X's first row.
    coeffs = dyn.EvolutionCoefficients(np.zeros((2, 2)), np.zeros((2, 2)),
                                       np.array([[1.0], [0.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        coeffs.propagator.advance(np.diag([-1.0, 1.0]), 1.0)
    # A stack reports how many of its samples were written before the failure.
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix") as info:
        coeffs.propagator.sample(np.diag([-1.0, 1.0]), 1.0, np.empty((3, 2, 2)))
    assert info.value.samples_written == 0


def test_trajectory_state_accessors():
    coeffs = dyn.EvolutionCoefficients(-np.eye(2), np.eye(2))
    traj = dyn.integrate(vacuum(1), coeffs, 1.0, dt=0.01, n_samples=5)
    assert len(traj) == len(traj.times) == len(traj.covs) == 5
    assert_allclose(traj.covs[0], 0.5 * np.eye(2))
    assert GaussianState(traj.covs[-1]).is_physical()
