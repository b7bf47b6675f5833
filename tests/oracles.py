"""Reference constructions that the tests compare the package against."""

import numpy as np
from scipy import linalg as sla

from mechmbqc.mbqc import FOURIER, shear_matrix
from mechmbqc.states import GaussianState, condition_on_homodyne, symplectic_form


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
    it forms [X; Y] from the propagator's own flow, solves X^T s = Y^T,
    applies the interval form's post-map W_c + Psi s if the flow has one,
    and symmetrizes."""
    offset, slope, post = propagator._flow(h)
    d = propagator.dim
    xy = offset + slope @ sigma
    sigma = np.linalg.solve(xy[:d].T, xy[d:].T)
    if post is not None:
        w_c, psi = post
        sigma = w_c + psi @ sigma
    return 0.5 * (sigma + sigma.T)


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


def project_one(state, mode, phi):
    """``mode`` of ``state`` measured in X_phi and the other modes kept in
    order: ``condition_on_homodyne`` on a stack of one."""
    keep = [m for m in range(state.n_modes) if m != mode]
    return GaussianState(condition_on_homodyne(state.cov[None], [mode], [phi], keep)[0])
