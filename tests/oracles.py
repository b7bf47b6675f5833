"""Reference constructions that the tests compare the package against."""

import math

import numpy as np
from scipy import linalg as sla

from mechmbqc.dynamics import _solve as solve
from mechmbqc.mbqc import FOURIER, shear_matrix
from mechmbqc.states import GaussianState, symplectic_form


def compose_oracle(lambdas) -> np.ndarray:
    """A four-measurement chain's gate built the long way, as the product
    f s(l4) f s(l3) f s(l2) f s(l1) of one teleportation step per shear.

    ``mbqc.lambdas_to_symplectic`` is the closed form of the same product.
    """
    l1, l2, l3, l4 = lambdas
    out = np.eye(2)
    for lam in (l1, l2, l3, l4):
        out = FOURIER @ shear_matrix(lam) @ out
    return out


def bbp_fidelity(s1, s2) -> float:
    """Uhlmann fidelity of two zero-mean Gaussian states, either or both
    mixed: the closed form of Banchi, Braunstein & Pirandola, PRL 115,
    260501 (2015), via V = W^T (s1 + s2)^-1 (W/4 + s2 W s1) with W = Omega.

    The package scores against a pure reference only, where the overlap
    1/sqrt(det(s1 + s2)) is exact; this is the general case it reduces from.
    """
    dim = s1.shape[0]
    omega = symplectic_form(dim // 2)
    sum_inv = np.linalg.inv(s1 + s2)
    v_aux = omega.T @ sum_inv @ (0.25 * omega + s2 @ omega @ s1)
    w = v_aux @ omega
    core = sla.sqrtm(np.eye(dim) + 0.25 * np.linalg.inv(w @ w)).real
    total = 2.0 * (core + np.eye(dim)) @ v_aux
    return float(np.sqrt(np.linalg.det(total) * np.linalg.det(sum_inv)))


def generic_solve_advance(propagator, sigma, h):
    """``Propagator.advance`` written with the generic ``np.linalg.solve``:
    it forms [X; Y / 2] from the propagator's own flow, whose Y rows are
    stored halved, solves X^T s = Y^T / 2, applies the interval form's
    post-map W_c / 2 + Psi s if the flow has one, and symmetrizes the half
    covariance s as s + s^T."""
    offset, slope, *post = propagator._flow(h)
    d = propagator.dim
    xy = offset + slope @ sigma
    sigma = np.linalg.solve(xy[:d].T, xy[d:].T)
    if post:
        w_c, psi = post
        sigma = w_c + psi @ sigma
    return sigma + sigma.T


def doubled_map(phi, d, doublings):
    """``(W_c, Psi, W_o)`` of the interval form of the flow ``phi`` composed
    with itself ``doublings`` times, written with a fresh right-hand side and
    identity per solve: with M = I + W_c W_o, each doubling sets
    Psi <- Psi M^-1 Psi, W_c <- W_c + Psi M^-1 W_c Psi^T and
    W_o <- W_o + Psi^T W_o M^-1 Psi, symmetrizing W_c and W_o.

    ``dynamics._doubled_map`` fills preallocated buffers with the same
    arithmetic in the same order, so the two agree bit for bit.
    """
    # Phi11^T [Psi, W_c] = [I, Phi21^T], and W_o = Psi^T Phi12.
    psi_wc = solve(phi[:d, :d].T.copy(order="F"), np.hstack([np.eye(d), phi[d:, :d].T]))
    psi, w_c = psi_wc[:, :d], psi_wc[:, d:]
    w_o = psi.T @ phi[:d, d:]
    w_c, w_o = 0.5 * (w_c + w_c.T), 0.5 * (w_o + w_o.T)
    for _ in range(doublings):
        solved = solve(np.eye(d) + w_c @ w_o, np.hstack([psi, w_c @ psi.T]))
        m_psi, m_wc_psi = solved[:, :d], solved[:, d:]
        w_c, w_o, psi = (w_c + psi @ m_wc_psi, w_o + psi.T @ w_o @ m_psi,
                         psi @ m_psi)
        w_c, w_o = 0.5 * (w_c + w_c.T), 0.5 * (w_o + w_o.T)
    return w_c, psi, w_o


def product_halvings(h, rate):
    """The fewest k >= 0 with 2^-k h rate <= 1, from the exponent of the
    rounded product h rate, and from the exponents of h and rate where that
    product overflows to inf.

    ``dynamics._halvings`` always adds the exponents, and so never forms
    the product.
    """
    mantissa, halvings = math.frexp(h * rate)
    if math.isinf(mantissa):
        # h lambda overflows: add the exponents of h and lambda.
        (m_h, e_h), (m_rate, e_rate) = math.frexp(h), math.frexp(rate)
        mantissa, halvings = math.frexp(m_h * m_rate)
        halvings += e_h + e_rate
    return max(0, halvings - (mantissa == 0.5))


def expm_flow(propagator, h):
    """``Propagator._flow(h)`` built with no cache and with
    ``scipy.linalg.expm``, as before the flows called scipy's Pade kernels
    directly: ``(offset, slope)`` with [X; Y / 2] = offset + slope sigma
    for a Davison-Maki step, or ``(offset, slope, W_c / 2, Psi)`` for the
    interval form, halved by :func:`product_halvings` and
    doubled by :func:`doubled_map`. ``propagator`` needs only ``hamiltonian``,
    ``rate`` and ``dim``."""
    halvings = product_halvings(h, propagator.rate)
    phi = sla.expm(math.ldexp(h, -halvings) * propagator.hamiltonian)
    d = propagator.dim
    if halvings:
        w_c, psi, w_o = doubled_map(phi, d, halvings)
        return np.eye(2 * d, d), np.vstack([w_o, 0.5 * psi]), 0.5 * w_c, psi
    phi[d:] *= 0.5
    return np.ascontiguousarray(phi[:, :d]), np.ascontiguousarray(phi[:, d:])


def same_flow(got, want) -> bool:
    """Whether two flows, ``(offset, slope)`` or ``(offset, slope, W_c / 2,
    Psi)``, agree in every bit, the sign of zeros too."""
    return len(got) == len(want) and all(
        g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for g, w in zip(got, want))


def substep_chain_advance(propagator, sigma, h):
    """The exact flow over ``h`` as a chain of ceil(h lambda) equal
    Davison-Maki substeps, each sigma <- Y X^-1 with [X; Y] = Phi [I; sigma],
    so that X grows by at most about e per substep."""
    n_sub = max(1, int(np.ceil(h * propagator.rate)))
    phi = sla.expm((h / n_sub) * propagator.hamiltonian)
    d = propagator.dim
    for _ in range(n_sub):
        xy = phi[:, :d] + phi[:, d:] @ sigma
        sigma = np.linalg.solve(xy[:d].T, xy[d:].T)
        sigma = 0.5 * (sigma + sigma.T)
    return sigma


def homodyne_conditioning(covs, modes, phases, keep):
    """Measure mode ``modes[i]`` in X_phi = q cos(phi) + p sin(phi) at
    ``phi = phases[i]``, for each covariance in a stack, and keep the modes
    ``keep`` in order: with R the rows of these quadratures, the Schur
    complement ``sigma_KK - sigma_KR (R sigma R^T)^-1 sigma_RK``, symmetrized.

    The package measures only momentum and turns each angle into a rotation
    of its node first (``MeasurementPattern.frame``); this measures every
    angle directly, with no frame and no input checks.
    """
    covs = np.asarray(covs, dtype=float)
    modes = np.asarray(modes, dtype=int)
    rows = np.zeros((len(modes), covs.shape[-1]))
    j = np.arange(len(modes))
    rows[j, 2 * modes] = np.cos(phases)
    rows[j, 2 * modes + 1] = np.sin(phases)
    idx = np.ravel([[2 * m, 2 * m + 1] for m in keep]).astype(int)
    sigma_kr = covs[:, idx] @ rows.T
    gain = np.linalg.solve(rows @ covs @ rows.T, np.swapaxes(sigma_kr, -1, -2))
    out = covs[:, idx][:, :, idx] - sigma_kr @ gain
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def project_one(state, mode, phi):
    """``mode`` of ``state`` measured in X_phi and the other modes kept in
    order: :func:`homodyne_conditioning` on a stack of one."""
    keep = [m for m in range(state.n_modes) if m != mode]
    return GaussianState(homodyne_conditioning(state.cov[None], [mode], [phi], keep)[0])
