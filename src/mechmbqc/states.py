"""Covariance-matrix representation of Gaussian states and the exact
operations on them: symplectic maps, CZ entangling gates, cluster-state
construction, projective homodyne measurement and Uhlmann fidelity.

Conventions used throughout the package:

* quadrature ordering ``(q1, p1, ..., qn, pn)``,
* hbar = 1 with vacuum variance 1/2 per quadrature,
* all states are zero-mean; only second moments are tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy import linalg as sla

# Vacuum variance per quadrature.
VACUUM_VAR = 0.5

# Relative tolerance for symmetry of covariance matrices.
SYMMETRY_RTOL = 1e-10

# Slack allowed on the minimum symplectic eigenvalue of a physical state.
PHYSICALITY_ATOL = 1e-9

# Relative cutoff for discarding singular values in pseudoinverses.
PINV_RCOND = 1e-12


@cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form, a direct sum of [[0, 1], [-1, 0]].

    Built once per mode count; the returned array is shared and read-only.
    """
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    j = np.arange(n_modes)
    omega[2 * j, 2 * j + 1] = 1.0
    omega[2 * j + 1, 2 * j] = -1.0
    omega.flags.writeable = False
    return omega


def is_symplectic(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Check M Omega M^T = Omega to within ``atol`` in max norm."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        return False
    omega = symplectic_form(matrix.shape[0] // 2)
    return bool(np.max(np.abs(matrix @ omega @ matrix.T - omega)) < atol)


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    ``cov`` may also be a stack of shape ``(..., 2n, 2n)``; each matrix's
    spectrum then runs along the last axis of the result, with the same
    values a call per matrix gives. The eigenvalues of ``Omega @ cov`` come
    in pairs ``+/- i nu``; the ``nu >= 1/2`` condition is the physicality
    criterion in the vacuum = 1/2 convention.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[-1] // 2
    evals = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ cov)), axis=-1)
    return 0.5 * (evals[..., 0::2] + evals[..., 1::2])


def first_unphysical(covs: np.ndarray, atol: float):
    """The first matrix of a stack ``(N, 2n, 2n)`` that is not a physical
    state, as ``(index, min symplectic eigenvalue)``, or ``None``.

    A matrix fails if it is not finite (reported as ``-inf``; no later
    matrix is examined) or if its minimum symplectic eigenvalue is below
    vacuum by more than the slack ``max(atol, 1e-10 * max|cov|)``, which
    scales with the matrix because highly squeezed covariances stress the
    eigensolver. This is the one physicality test of the package.
    """
    covs = np.asarray(covs, dtype=float)
    finite = np.isfinite(covs).all(axis=(-2, -1))
    n_finite = len(covs) if finite.all() else int(np.argmin(finite))
    checked = covs[:n_finite]
    nu_min = symplectic_eigenvalues(checked)[:, 0]
    slack = np.maximum(atol, 1e-10 * np.max(np.abs(checked), axis=(-2, -1)))
    unphysical = ~(nu_min >= VACUUM_VAR - slack)
    if np.any(unphysical):
        first = int(np.argmax(unphysical))
        return first, float(nu_min[first])
    if n_finite < len(covs):
        return n_finite, float("-inf")
    return None


def quadratures(modes) -> np.ndarray:
    """Row indices ``2m, 2m + 1`` of each listed mode ``m``, in order."""
    modes = np.asarray(modes, dtype=int)
    return np.stack([2 * modes, 2 * modes + 1], axis=-1).ravel()


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Symmetric part of a covariance matrix, or of each in a stack.

    Raises:
        ValueError: if a matrix departs from symmetry by more than
            ``SYMMETRY_RTOL`` relative to its largest entry (at least 1).
    """
    cov = np.asarray(cov, dtype=float)
    transposed = np.swapaxes(cov, -1, -2)
    scale = np.maximum(np.max(np.abs(cov), axis=(-2, -1)), 1.0)
    if np.any(np.max(np.abs(cov - transposed), axis=(-2, -1)) > SYMMETRY_RTOL * scale):
        raise ValueError("covariance matrix is not symmetric")
    return 0.5 * (cov + transposed)


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state of ``n_modes`` modes.

    Attributes:
        n_modes: number of bosonic modes.
        cov: 2n x 2n real symmetric covariance matrix in (q1, p1, ...)
            ordering; stored symmetrized and read-only.

    Because ``cov`` cannot change, the symplectic spectrum is computed at
    most once per state and shared by :meth:`symplectic_spectrum` and
    every purity test; :meth:`is_physical` goes through
    :func:`first_unphysical` like every other physicality test.
    """

    n_modes: int
    cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("a Gaussian state needs at least one mode")
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise ValueError(
                f"covariance shape {cov.shape} does not match {self.n_modes} modes"
            )
        cov = symmetrize(cov)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        spectrum = symplectic_eigenvalues(self.cov)
        spectrum.flags.writeable = False
        return spectrum

    def symplectic_spectrum(self) -> np.ndarray:
        """Symplectic eigenvalues, ascending (a read-only array)."""
        return self._spectrum

    def is_physical(self) -> bool:
        return first_unphysical(self.cov[None], PHYSICALITY_ATOL) is None

    def is_pure(self, atol: float = 1e-7) -> bool:
        spectrum = self.symplectic_spectrum()
        return bool(np.all(np.abs(spectrum - VACUUM_VAR) < atol))

    def _check_mode(self, mode: int):
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode index {mode} out of range for {self.n_modes} modes")


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum state, covariance I/2."""
    if n_modes < 1:
        raise ValueError("mode count must be positive")
    return GaussianState(n_modes, VACUUM_VAR * np.eye(2 * n_modes))


def thermal(n_modes: int, occupancy) -> GaussianState:
    """Product of thermal states with mean occupation ``occupancy`` per mode.

    ``occupancy`` may be a scalar or a length-``n_modes`` sequence.
    """
    nbar = np.broadcast_to(np.asarray(occupancy, dtype=float), (n_modes,))
    if np.any(nbar < 0):
        raise ValueError("thermal occupancy must be non-negative")
    diag = np.repeat(nbar + VACUUM_VAR, 2)
    return GaussianState(n_modes, np.diag(diag))


def db_to_squeeze_parameter(r_db: float) -> float:
    """Convert squeezing quoted in dB to the dimensionless parameter r.

    Defined so the squeezed variance ratio is ``10**(-r_db / 10)``, i.e.
    ``r = r_db * ln(10) / 20``.
    """
    return float(r_db) * np.log(10.0) / 20.0


def embed_single_mode(matrix2: np.ndarray, n_modes: int, mode: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on ``mode`` into a 2n x 2n identity."""
    full = np.eye(2 * n_modes)
    s = slice(2 * mode, 2 * mode + 2)
    full[s, s] = matrix2
    return full


def apply_symplectic(state: GaussianState, matrix: np.ndarray) -> GaussianState:
    """Map the covariance by ``S cov S^T`` after checking S is symplectic."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (2 * state.n_modes, 2 * state.n_modes):
        raise ValueError("symplectic matrix has the wrong dimension")
    if not is_symplectic(matrix):
        raise ValueError("matrix is not symplectic")
    return GaussianState(state.n_modes, matrix @ state.cov @ matrix.T)


def squeeze_momentum(state: GaussianState, mode: int, r_db: float) -> GaussianState:
    """Squeeze the momentum quadrature of one mode by ``r_db`` decibels.

    Acts with the symplectic ``diag(e^r, e^-r)`` so an initially vacuum mode
    ends with ``Var(p) = e^(-2r)/2`` and ``Var(q) = e^(2r)/2``.
    """
    state._check_mode(mode)
    if r_db < 0:
        raise ValueError("squeezing in dB must be non-negative")
    r = db_to_squeeze_parameter(r_db)
    local = np.diag([np.exp(r), np.exp(-r)])
    return apply_symplectic(state, embed_single_mode(local, state.n_modes, mode))


def rotation_matrix(phi: float) -> np.ndarray:
    """Single-mode phase-space rotation mapping q onto X_phi = q cos(phi) + p sin(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def cz_matrix(n_modes: int, j: int, k: int, weight: float = 1.0) -> np.ndarray:
    """Symplectic matrix of CZ between modes j and k: p_j += w q_k, p_k += w q_j."""
    if j == k:
        raise ValueError("CZ needs two distinct modes")
    full = np.eye(2 * n_modes)
    full[2 * j + 1, 2 * k] = weight
    full[2 * k + 1, 2 * j] = weight
    return full


def apply_cz(state: GaussianState, j: int, k: int, weight: float = 1.0) -> GaussianState:
    """Apply the controlled-phase gate of given weight between two modes."""
    state._check_mode(j)
    state._check_mode(k)
    return apply_symplectic(state, cz_matrix(state.n_modes, j, k, weight))


@dataclass(frozen=True)
class GraphSpec:
    """Weighted graph describing a cluster state's nodes and CZ edges."""

    n_nodes: int
    edges: tuple = ()

    def __post_init__(self):
        normalized = []
        for edge in self.edges:
            if len(edge) == 2:
                j, k = edge
                weight = 1.0
            else:
                j, k, weight = edge
            if j == k:
                raise ValueError("graph may not contain self-loops")
            if not (0 <= j < self.n_nodes and 0 <= k < self.n_nodes):
                raise ValueError(f"edge ({j}, {k}) references a missing node")
            normalized.append((int(j), int(k), float(weight)))
        object.__setattr__(self, "edges", tuple(normalized))

    @staticmethod
    def linear(n_nodes: int, weight: float = 1.0) -> "GraphSpec":
        """Chain graph 0-1-...-(n-1)."""
        return GraphSpec(n_nodes, tuple((j, j + 1, weight) for j in range(n_nodes - 1)))

    def neighbors(self, node: int):
        """Mapping of neighbor -> edge weight for one node."""
        out = {}
        for j, k, w in self.edges:
            if j == node:
                out[k] = out.get(k, 0.0) + w
            elif k == node:
                out[j] = out.get(j, 0.0) + w
        return out


def build_cluster(graph: GraphSpec, r_cluster_db: float,
                  inputs: dict = None) -> GaussianState:
    """Build a Gaussian cluster state on ``graph``.

    ``inputs`` maps nodes to single-mode states that are placed there
    unchanged. Every other node starts as a momentum-squeezed vacuum at
    ``r_cluster_db``. Each weighted edge is then applied as a CZ gate.
    """
    inputs = dict(inputs or {})
    cov = VACUUM_VAR * np.eye(2 * graph.n_nodes)
    for node, state in inputs.items():
        if state.n_modes != 1 or not 0 <= node < graph.n_nodes:
            raise ValueError("cluster inputs must be single-mode states on graph nodes")
        cov[2 * node : 2 * node + 2, 2 * node : 2 * node + 2] = state.cov
    state = GaussianState(graph.n_nodes, cov)
    for node in range(graph.n_nodes):
        if node not in inputs:
            state = squeeze_momentum(state, node, r_cluster_db)
    for j, k, w in graph.edges:
        state = apply_cz(state, j, k, w)
    return state


def nullifier_variances(state: GaussianState, graph: GraphSpec) -> np.ndarray:
    """Variances of the nullifiers p_j - sum_k w_jk q_k for each node.

    These vanish in the infinite-squeezing limit of an ideal cluster state.
    """
    variances = np.empty(graph.n_nodes)
    for node in range(graph.n_nodes):
        vec = np.zeros(2 * state.n_modes)
        vec[2 * node + 1] = 1.0
        for other, w in graph.neighbors(node).items():
            vec[2 * other] = -w
        variances[node] = vec @ state.cov @ vec
    return variances


def partial_trace(state: GaussianState, modes_to_keep) -> GaussianState:
    """Reduced state on the listed modes (order preserved)."""
    keep = list(modes_to_keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    for mode in keep:
        state._check_mode(mode)
    idx = quadratures(keep)
    return GaussianState(len(keep), state.cov[np.ix_(idx, idx)])


def homodyne_project_covs(covs: np.ndarray, mode: int, phi: float) -> np.ndarray:
    """Project one mode of every covariance in a stack ``(N, 2n, 2n)``.

    The measured quadrature is X_phi = q cos(phi) + p sin(phi). Each matrix
    is rotated so X_phi becomes the measured mode's q quadrature; the
    remaining modes receive the Schur-complement update
    ``sigma_A - sigma_AB (Pi sigma_B Pi)^+ sigma_AB^T`` with Pi = diag(1, 0),
    and the measured mode is removed. At the covariance level the update is
    independent of the measurement outcome. Each entry of the result is the
    one a stack holding only its matrix gives.

    Args:
        covs: symmetric covariances, all of them physical.
        mode: index of the measured mode.
        phi: quadrature angle in radians.

    Returns:
        The ``(N, 2n - 2, 2n - 2)`` stack of symmetrized results.
    """
    covs = np.asarray(covs, dtype=float)
    n_modes = covs.shape[-1] // 2
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode index {mode} out of range for {n_modes} modes")
    if n_modes < 2:
        raise ValueError("measuring the only mode leaves no state behind")
    unphysical = first_unphysical(covs, PHYSICALITY_ATOL)
    if unphysical is not None:
        raise ValueError("input state is unphysical (min symplectic eigenvalue "
                         f"{unphysical[1]:.3e})")

    rot = embed_single_mode(rotation_matrix(phi), n_modes, mode)
    cov = rot @ covs @ rot.T

    idx_a = np.delete(np.arange(2 * n_modes), quadratures([mode]))
    idx_b = slice(2 * mode, 2 * mode + 2)
    sigma_a = cov[:, idx_a][:, :, idx_a]
    sigma_ab = cov[:, idx_a, idx_b]
    sigma_b = cov[:, idx_b, idx_b]

    pi = np.diag([1.0, 0.0])
    gain = np.linalg.pinv(pi @ sigma_b @ pi, rcond=PINV_RCOND)
    return symmetrize(sigma_a - sigma_ab @ gain @ np.swapaxes(sigma_ab, -1, -2))


def homodyne_project(state: GaussianState, mode: int, phi: float) -> GaussianState:
    """Project one mode of a state onto the quadrature X_phi.

    The single-state form of :func:`homodyne_project_covs`, under the same
    contract: ``state`` must be physical. Returns the GaussianState with one
    fewer mode.
    """
    cov = homodyne_project_covs(state.cov[None], mode, phi)[0]
    return GaussianState(state.n_modes - 1, cov)


def _overlap(cov_sum: np.ndarray):
    """tr(rho1 rho2) for zero-mean Gaussians, 1/sqrt(det(sigma1 + sigma2)),
    for one covariance sum or each of a stack."""
    sign, logdet = np.linalg.slogdet(cov_sum)
    if np.any(sign <= 0):
        raise ValueError("covariance sum is not positive definite")
    return np.exp(-0.5 * logdet)


def _check_fidelity_inputs(covs: np.ndarray):
    unphysical = first_unphysical(covs, PHYSICALITY_ATOL)
    if unphysical is not None:
        raise ValueError("fidelity input is unphysical "
                         f"(min symplectic eigenvalue {unphysical[1]:.3e})")


def fidelity(state1: GaussianState, state2: GaussianState) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2.

    Uses the overlap shortcut ``1/sqrt(det(sigma1 + sigma2))`` when either
    state is pure (exact in that case) and the general closed form for a pair
    of mixed Gaussian states otherwise. Both states must be physical, have
    equal mode counts and zero means.

    Returns:
        Fidelity in [0, 1]; 1 iff the covariances coincide.
    """
    if state1.n_modes != state2.n_modes:
        raise ValueError("fidelity needs equal mode counts")
    _check_fidelity_inputs(np.array([state1.cov, state2.cov]))

    cov_sum = state1.cov + state2.cov
    if state1.is_pure() or state2.is_pure():
        return float(min(1.0, _overlap(cov_sum)))

    # General mixed-Gaussian closed form via the auxiliary matrix
    # W.T (s1+s2)^-1 (W/4 + s2 W s1) with W the symplectic form.
    n = state1.n_modes
    s1, s2 = state1.cov, state2.cov
    omega = symplectic_form(n)
    sum_inv = np.linalg.inv(cov_sum)
    v_aux = omega.T @ sum_inv @ (0.25 * omega + s2 @ omega @ s1)
    w = v_aux @ omega
    core = sla.sqrtm(np.eye(2 * n) + 0.25 * np.linalg.inv(w @ w))
    if np.iscomplexobj(core):
        core = core.real
    total = 2.0 * (core + np.eye(2 * n)) @ v_aux
    f = np.sqrt(np.linalg.det(total) * np.linalg.det(sum_inv))
    return float(min(1.0, f))


def fidelity_to(covs: np.ndarray, reference: GaussianState) -> np.ndarray:
    """Fidelity of each covariance in a stack ``(N, 2n, 2n)`` to one state.

    Entry ``i`` equals ``fidelity(GaussianState(n, covs[i]), reference)``
    under the same contract: every matrix must be symmetric, and every
    matrix and the reference physical. With a pure reference each entry is
    the overlap ``min(1, 1/sqrt(det(sigma_i + sigma_ref)))``, from one
    batched determinant; otherwise each entry goes through :func:`fidelity`.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != reference.cov.shape:
        raise ValueError("fidelity needs equal mode counts")
    covs = symmetrize(covs)
    _check_fidelity_inputs(np.concatenate([covs, reference.cov[None]]))
    if not reference.is_pure():
        return np.array([fidelity(GaussianState(reference.n_modes, cov), reference)
                         for cov in covs])
    return np.minimum(1.0, _overlap(covs + reference.cov))
