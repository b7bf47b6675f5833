"""Deterministic covariance evolution under dissipation and monitoring.

Unmonitored bath channels drive a Lyapunov equation
``sigma' = A sigma + sigma A^T + D``; continuously monitored channels add the
Riccati term ``- sigma B B^T sigma`` and modify the coefficients. Both kinds
of channel compose additively into a single matrix ODE with constant
coefficients, which :class:`Propagator` solves exactly through its
linear-fractional (Davison-Maki) form. :func:`integrate` samples that exact
flow on a fixed time grid.

Couplings are expressed in the quadrature representation: a system-bath
coupling Hamiltonian (1/2) r^T [[0, C], [C^T, 0]] r with ``n`` system and
``m`` input modes has a 2n x 2m block ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dgesv

from .states import (
    GaussianState,
    db_to_squeeze_parameter,
    first_unphysical,
    symplectic_form,
)


class PhysicalityError(RuntimeError):
    """Raised when a propagated covariance stops being a physical state."""

    def __init__(self, t: float, nu_min: float):
        super().__init__(
            f"covariance lost physicality at t = {t:.6e} "
            f"(min symplectic eigenvalue {nu_min:.6e})"
        )
        self.t = t
        self.nu_min = nu_min


@dataclass(frozen=True)
class CouplingSpec:
    """System Hamiltonian matrix plus monitored/dissipative coupling blocks.

    Attributes:
        h_system: 2n x 2n symmetric Hamiltonian matrix.
        c_monitored: 2n x 2m_m coupling to the monitored input modes.
        c_dissipative: 2n x 2m_d coupling to the lost input modes.
    """

    h_system: np.ndarray
    c_monitored: np.ndarray
    c_dissipative: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_system, dtype=float)
        cm = np.asarray(self.c_monitored, dtype=float)
        cd = np.asarray(self.c_dissipative, dtype=float)
        dim = h.shape[0]
        if h.shape != (dim, dim) or dim % 2:
            raise ValueError("system Hamiltonian matrix must be 2n x 2n")
        if np.max(np.abs(h - h.T)) > 1e-10 * max(1.0, np.max(np.abs(h))):
            raise ValueError("system Hamiltonian matrix must be symmetric")
        for name, c in (("monitored", cm), ("dissipative", cd)):
            if c.shape[0] != dim or c.shape[1] % 2:
                raise ValueError(f"{name} coupling must be 2n x 2m")
        object.__setattr__(self, "h_system", h)
        object.__setattr__(self, "c_monitored", cm)
        object.__setattr__(self, "c_dissipative", cd)

    @property
    def n_modes(self) -> int:
        return self.h_system.shape[0] // 2


@dataclass(frozen=True)
class BathSpec:
    """Input-mode covariances and detection parameters.

    Attributes:
        sigma_monitored: 2m_m x 2m_m covariance of the monitored inputs
            (vacuum I/2 for an optical channel).
        sigma_dissipative: 2m_d x 2m_d covariance of the lost inputs
            (block-diagonal thermal (n + 1/2) I per mechanical channel).
        sigma_post_meas: 2m_m x 2m_m post-measurement covariance of the
            homodyned modes, (1/2) diag(e^-2r, e^2r) per channel.
        eta: detector efficiency in (0, 1].
    """

    sigma_monitored: np.ndarray
    sigma_dissipative: np.ndarray
    sigma_post_meas: np.ndarray
    eta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        for name in ("sigma_monitored", "sigma_dissipative", "sigma_post_meas"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def homodyne_post_meas_cov(r_post_meas_db: float) -> np.ndarray:
    """Position-squeezed post-measurement covariance (1/2) diag(e^-2r, e^2r)."""
    r = db_to_squeeze_parameter(r_post_meas_db)
    return 0.5 * np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)])


def build_lyapunov(c_dissipative: np.ndarray, sigma_bath: np.ndarray):
    """Drift and diffusion of the unmonitored channels.

    A = Omega C Omega C^T / 2 and D = Omega C sigma_B C^T Omega^T.

    Returns:
        (A, D) with D symmetric positive semidefinite.
    """
    c = np.asarray(c_dissipative, dtype=float)
    sigma_b = np.asarray(sigma_bath, dtype=float)
    n2, m2 = c.shape
    if sigma_b.shape != (m2, m2):
        raise ValueError("bath covariance does not match the coupling width")
    omega_s = symplectic_form(n2 // 2)
    omega_b = symplectic_form(m2 // 2) if m2 else np.zeros((0, 0))
    drift = 0.5 * omega_s @ c @ omega_b @ c.T
    diffusion = omega_s @ c @ sigma_b @ c.T @ omega_s.T
    return drift, 0.5 * (diffusion + diffusion.T)


def add_system_hamiltonian(drift: np.ndarray, h_system: np.ndarray) -> np.ndarray:
    """Add the Hamiltonian contribution Omega H_s to a drift matrix."""
    drift = np.asarray(drift, dtype=float)
    h = np.asarray(h_system, dtype=float)
    return drift + symplectic_form(drift.shape[0] // 2) @ h


def build_riccati(c_monitored: np.ndarray, sigma_bath: np.ndarray,
                  sigma_post_meas: np.ndarray, eta: float = 1.0):
    """Coefficients of the monitored channels after the inefficiency map.

    With M = (sigma_B + sigma_m)^-1 evaluated at the eta-distorted
    post-measurement covariance:

        A_tilde = A - Omega C sigma_B M Omega C^T
        D_tilde = D + Omega C sigma_B M sigma_B C^T Omega
        B       = C Omega sqrt(M)

    Returns:
        (A_tilde, D_tilde, B).
    """
    c = np.asarray(c_monitored, dtype=float)
    n2, m2 = c.shape
    sigma_b = np.asarray(sigma_bath, dtype=float)
    if not 0.0 < eta <= 1.0:
        raise ValueError("detector efficiency must lie in (0, 1]")
    sigma_m = (
        np.asarray(sigma_post_meas, dtype=float) / eta
        + (1.0 - eta) / eta * np.eye(m2)
    )
    total = sigma_b + sigma_m
    evals = np.linalg.eigvalsh(0.5 * (total + total.T))
    if np.min(evals) <= 1e-14 * max(1.0, np.max(evals)):
        raise ValueError("sigma_B + sigma_m must be positive definite")
    m_inv = np.linalg.inv(total)

    drift, diffusion = build_lyapunov(c, sigma_b)
    omega_s = symplectic_form(n2 // 2)
    omega_b = symplectic_form(m2 // 2)
    g = omega_s @ c @ sigma_b
    drift_t = drift - g @ m_inv @ omega_b @ c.T
    diffusion_t = diffusion + g @ m_inv @ sigma_b @ c.T @ omega_s

    w, v = np.linalg.eigh(m_inv)
    sqrt_m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    backaction = c @ omega_b @ sqrt_m
    return drift_t, 0.5 * (diffusion_t + diffusion_t.T), backaction


@dataclass(frozen=True)
class EvolutionCoefficients:
    """Additively combined coefficients of the covariance ODE.

    sigma' = drift sigma + sigma drift^T + diffusion - sigma (B B^T) sigma.

    The matrices are stored read-only, so what is derived from them alone
    (:attr:`bbt` and the exact flow :attr:`propagator`) is computed once and
    stays valid for the object's lifetime.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    backaction: np.ndarray = field(default=None)

    def __post_init__(self):
        drift = np.array(self.drift, dtype=float)
        diffusion = np.array(self.diffusion, dtype=float)
        dim = drift.shape[0]
        backaction = self.backaction
        if backaction is None:
            backaction = np.zeros((dim, 0))
        backaction = np.array(backaction, dtype=float)
        if diffusion.shape != (dim, dim):
            raise ValueError("diffusion matrix dimension mismatch")
        if np.max(np.abs(diffusion - diffusion.T)) > 1e-9 * max(1.0, np.max(np.abs(diffusion))):
            raise ValueError("diffusion matrix must be symmetric")
        if backaction.shape[0] != dim:
            raise ValueError("backaction matrix dimension mismatch")
        for name, value in (("drift", drift), ("diffusion", diffusion),
                            ("backaction", backaction)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @cached_property
    def bbt(self) -> np.ndarray:
        """The backaction matrix B B^T (a read-only array)."""
        bbt = self.backaction @ self.backaction.T
        bbt.flags.writeable = False
        return bbt

    @cached_property
    def propagator(self) -> "Propagator":
        """The exact flow of these coefficients, built on first use."""
        return Propagator(self)


class Propagator:
    """Exact flow of the covariance ODE over intervals of any length.

    With constant coefficients the Riccati equation is solved by
    sigma = Y X^-1, where [X; Y] obeys the linear ODE
    d/dt [X; Y] = H [X; Y] with H = [[-A^T, G], [D, A]] and G = B B^T
    (Davison & Maki, IEEE TAC 18, 1973; for G = 0 this is the Lyapunov flow
    of Van Loan, IEEE TAC 23, 1978). Over an interval h one step is
    sigma <- (Phi21 + Phi22 sigma)(Phi11 + Phi12 sigma)^-1 with
    Phi = expm(h H), i.e. [X; Y] = Phi[:, :n] + Phi[:, n:] sigma.

    An interval is split into ceil(h * lambda) equal substeps, lambda the
    largest real part in the spectrum of H, so X grows by at most about e
    per substep and stays well conditioned. Phi is computed once per
    distinct interval length and shared by all its substeps. A substep is
    one product for [X; Y], one LAPACK ``dgesv`` for X^T sigma = Y^T and a
    symmetrization; a singular X raises :class:`numpy.linalg.LinAlgError`.
    """

    def __init__(self, coeffs: EvolutionCoefficients):
        a = coeffs.drift
        self.dim = coeffs.dim
        self.hamiltonian = np.block([[-a.T, coeffs.bbt], [coeffs.diffusion, a]])
        self.rate = max(0.0, float(np.max(np.linalg.eigvals(self.hamiltonian).real)))
        self._flows = {}

    def _flow(self, h: float):
        flow = self._flows.get(h)
        if flow is None:
            n_sub = max(1, int(np.ceil(h * self.rate)))
            phi = sla.expm((h / n_sub) * self.hamiltonian)
            d = self.dim
            flow = (n_sub, np.ascontiguousarray(phi[:, :d]),
                    np.ascontiguousarray(phi[:, d:]))
            self._flows[h] = flow
        return flow

    def advance(self, sigma: np.ndarray, h: float) -> np.ndarray:
        """Covariance after an interval ``h``, starting from ``sigma``."""
        n_sub, offset, slope = self._flow(h)
        d = self.dim
        for _ in range(n_sub):
            xy = offset + slope @ sigma
            # The new covariance Y X^-1 is symmetric, so it equals its
            # transpose X^-T Y^T, which one solve gives. X^T and Y^T are
            # Fortran-ordered views of the fresh xy, solved in place.
            _, _, sigma, info = dgesv(xy[:d].T, xy[d:].T,
                                      overwrite_a=True, overwrite_b=True)
            if info > 0:
                raise np.linalg.LinAlgError("Singular matrix")
            sigma = 0.5 * (sigma + sigma.T)
        return sigma


def build_coefficients(coupling: CouplingSpec, baths: BathSpec) -> EvolutionCoefficients:
    """Assemble the full ODE coefficients from a coupling and bath spec.

    The Lyapunov part (dissipative channels), the Riccati part (monitored
    channels) and the Hamiltonian drift compose by matrix addition.
    """
    a_lyap, d_lyap = build_lyapunov(coupling.c_dissipative, baths.sigma_dissipative)
    if coupling.c_monitored.shape[1]:
        a_ricc, d_ricc, backaction = build_riccati(
            coupling.c_monitored, baths.sigma_monitored, baths.sigma_post_meas, baths.eta
        )
    else:
        dim = 2 * coupling.n_modes
        a_ricc = np.zeros((dim, dim))
        d_ricc = np.zeros((dim, dim))
        backaction = np.zeros((dim, 0))
    drift = add_system_hamiltonian(a_lyap + a_ricc, coupling.h_system)
    return EvolutionCoefficients(drift, d_lyap + d_ricc, backaction)


@dataclass(frozen=True)
class Trajectory:
    """Sampled covariance trajectory of one integration run."""

    times: np.ndarray
    covs: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


# Grid steps per inverse fastest rate in :func:`grid_step_rule`.
DT_SAFETY = 20.0


def grid_step_rule(coeffs: EvolutionCoefficients, horizon: float):
    """The grid step that decides where :func:`integrate` places its
    samples, as a function of the covariance at the start of the grid.

    The propagation between samples is exact, so this step sets no accuracy;
    it fixes the sample times, which are part of every run's output (the
    maximum fidelity of a run is taken over them). It is sized against the
    fastest rate in the ODE. The linear part contributes the drift's spectral
    norm. The measurement nonlinearity enters through ``sigma B B^T``, which
    only reads the covariance columns of the monitored block, so the estimate
    is the spectral norm of ``B B^T`` times the norm of those columns (plus
    diffusive growth over the horizon) rather than of the full covariance.
    All but the columns' SVD is computed here, once per rule; the rule is
    built once per monitored step.
    """
    drift_norm = float(np.linalg.norm(coeffs.drift, 2))
    cols = np.flatnonzero(np.abs(coeffs.bbt).max(axis=0))
    if cols.size:
        bbt_norm = float(np.linalg.norm(coeffs.bbt, 2))
        # Diffusive growth per direction saturates once the local damping
        # balances it, so damped directions do not inflate long horizons.
        window = np.minimum(horizon, 1.0 / np.maximum(-np.diag(coeffs.drift), 1.0 / horizon))
        growth = float(np.max(np.diag(coeffs.diffusion) * window, initial=0.0))

    def dt_of(sigma) -> float:
        rate = drift_norm
        if cols.size:
            sigma = np.asarray(sigma, dtype=float)
            v_est = max(np.linalg.svd(sigma[:, cols], compute_uv=False).max() + growth, 1.0)
            rate += bbt_norm * v_est
        return horizon if rate <= 0.0 else min(horizon, 1.0 / (DT_SAFETY * rate))

    return dt_of


# Slack on the minimum symplectic eigenvalue of a propagated sample.
PROPAGATION_ATOL = 1e-6


def integrate(sigma0, coeffs: EvolutionCoefficients, t_total: float, dt: float,
              n_samples: int = 200) -> Trajectory:
    """Propagate the covariance exactly and sample it on a grid of step dt.

    The horizon is cut into ``ceil(t_total / dt)`` grid steps, the last one
    shortened to land on ``t_total``. A sample is stored every
    ``sample_every`` steps, with ``sample_every`` the smallest stride that
    keeps the count within ``n_samples``, and at ``t_total``. Between
    samples the covariance follows the exact flow of ``coeffs.propagator``,
    so ``dt`` only decides where samples fall. Every propagated sample is
    checked for physicality, all of them at once after the propagation; a
    violation beyond ``PROPAGATION_ATOL`` (judged by
    :func:`~mechmbqc.states.first_unphysical`) raises
    :class:`PhysicalityError` at the first offending sample.

    Args:
        sigma0: initial covariance (or GaussianState).
        coeffs: combined ODE coefficients.
        t_total: integration horizon (finite, >= 0).
        dt: grid step (finite, > 0).
        n_samples: cap on the number of stored samples (endpoints
            included), an integer of at least 2.

    Returns:
        Trajectory of sampled times and covariances, starting at time 0.
    """
    if isinstance(sigma0, GaussianState):
        sigma0 = sigma0.cov
    sigma = np.array(sigma0, dtype=float)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"time step dt must be positive and finite, got {dt!r}")
    if not 0.0 <= t_total < np.inf:
        raise ValueError("integration horizon t_total must be non-negative and "
                         f"finite, got {t_total!r}")
    if type(n_samples) is not int or n_samples < 2:
        raise ValueError("n_samples must be an integer of at least 2, "
                         f"got {n_samples!r}")

    return _sample_flow(sigma, coeffs, t_total, 1, lambda _: dt, n_samples, 0.0)


def _sample_flow(sigma: np.ndarray, coeffs: EvolutionCoefficients, chunk: float,
                 n_chunks: int, dt_of, n_samples: int, t_offset: float) -> Trajectory:
    """Sample the exact flow from ``sigma`` over ``n_chunks`` chunks of length ``chunk``,
    each on :func:`integrate`'s grid for the step ``dt_of(cov)`` at its start and at most
    ``n_samples`` samples (one ``advance`` each; two keep only the end point, whatever
    the step), and guard all samples after the start with one :func:`_check_samples`."""
    propagator = coeffs.propagator
    times = [t_offset]
    covs = [sigma]
    try:
        for _ in range(n_chunks):
            dt = dt_of(sigma)
            n_steps = max(1, int(np.ceil(chunk / dt))) if chunk > 0 else 0
            sample_every = max(1, int(np.ceil(n_steps / max(1, n_samples - 1)))) if n_steps else 1
            marks = range(sample_every, n_steps, sample_every)
            start = times[-1]
            for k in marks:
                sigma = propagator.advance(sigma, sample_every * dt)
                times.append(start + k * dt)
                covs.append(sigma)
            if n_steps:
                sigma = propagator.advance(sigma, chunk - (marks[-1] * dt if marks else 0.0))
                times.append(start + chunk)
                covs.append(sigma)
    except np.linalg.LinAlgError:
        # A sample before the failed solve may already be unphysical; that
        # is the first fault, so it is reported in preference.
        _check_samples(times[1:], np.asarray(covs)[1:])
        raise
    covs = np.asarray(covs)
    _check_samples(times[1:], covs[1:])
    return Trajectory(np.asarray(times), covs)


def _check_samples(times: list, covs: np.ndarray):
    """Raise :class:`PhysicalityError` at the first sample that is not
    finite or whose minimum symplectic eigenvalue falls below vacuum by more
    than the scaled ``PROPAGATION_ATOL``."""
    unphysical = first_unphysical(covs, PROPAGATION_ATOL)
    if unphysical is not None:
        first, nu_min = unphysical
        raise PhysicalityError(times[first], nu_min)
