"""Reference constructions that the tests compare the package against."""

import numpy as np

from mechmbqc.mbqc import FOURIER, shear_matrix
from mechmbqc.states import GaussianState, condition_on_homodyne


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


def generic_solve_advance(propagator, sigma, h):
    """``Propagator.advance`` written with the generic ``np.linalg.solve``:
    each substep forms [X; Y] from the propagator's own flow, solves
    X^T s = Y^T and symmetrizes s."""
    n_sub, offset, slope = propagator._flow(h)
    d = propagator.dim
    for _ in range(n_sub):
        xy = offset + slope @ sigma
        sigma = np.linalg.solve(xy[:d].T, xy[d:].T)
        sigma = 0.5 * (sigma + sigma.T)
    return sigma


def project_one(state, mode, phi):
    """``mode`` of ``state`` measured in X_phi and the other modes kept in
    order: ``condition_on_homodyne`` on a stack of one."""
    keep = [m for m in range(state.n_modes) if m != mode]
    return GaussianState(condition_on_homodyne(state.cov[None], [mode], [phi], keep)[0])
