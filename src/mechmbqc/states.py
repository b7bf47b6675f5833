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

# Largest distance from vacuum of any symplectic eigenvalue of a pure state.
PURITY_ATOL = 1e-7


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

    A verdict is reached in two stages. A finite, non-empty stack is first
    certified by one batched Cholesky of the Hermitian ``cov + i c Omega``
    with ``c = 1/2 - slack``: it exists exactly when ``nu_min >= c``
    (Simon, Mukunda & Dutta, PRA 49, 1567 (1994)), and then the answer is
    ``None``. Only a stack the certificate does not pass, or one holding a
    NaN or inf, takes the spectral path, which decides, finds the first
    failing index and reports its ``nu_min``.
    """
    covs = np.asarray(covs, dtype=float)
    finite = np.isfinite(covs).all(axis=(-2, -1))
    n_finite = len(covs) if finite.all() else int(np.argmin(finite))
    checked = covs[:n_finite]
    slack = np.maximum(atol, 1e-10 * np.max(np.abs(checked), axis=(-2, -1)))
    if n_finite and n_finite == len(covs):
        omega = symplectic_form(covs.shape[-1] // 2)
        try:
            np.linalg.cholesky(covs + 1j * (VACUUM_VAR - slack)[:, None, None] * omega)
            return None
        except np.linalg.LinAlgError:
            pass
    nu_min = symplectic_eigenvalues(checked)[:, 0]
    unphysical = ~(nu_min >= VACUUM_VAR - slack)
    if np.any(unphysical):
        first = int(np.argmax(unphysical))
        return first, float(nu_min[first])
    if n_finite < len(covs):
        return n_finite, float("-inf")
    return None


def is_pure_spectrum(spectra: np.ndarray, atol: float) -> np.ndarray:
    """Whether each symplectic spectrum (along the last axis) is that of a
    pure state: every eigenvalue within ``atol`` of vacuum. The one purity
    test of the package."""
    return np.all(np.abs(spectra - VACUUM_VAR) < atol, axis=-1)


def quadratures(modes) -> np.ndarray:
    """Row indices ``2m, 2m + 1`` of each listed mode ``m``, in order."""
    modes = np.asarray(modes, dtype=int)
    return np.stack([2 * modes, 2 * modes + 1], axis=-1).ravel()


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Symmetric part of a covariance matrix, or of each in a stack.

    A skew that is not a number (``inf - inf``, NaN) is not measured, so a
    non-finite matrix is left for :func:`first_unphysical` to reject.

    Raises:
        ValueError: if a matrix departs from symmetry by more than
            ``SYMMETRY_RTOL`` relative to its largest entry (at least 1).
    """
    cov = np.asarray(cov, dtype=float)
    transposed = np.swapaxes(cov, -1, -2)
    scale = np.maximum(np.max(np.abs(cov), axis=(-2, -1)), 1.0)
    with np.errstate(invalid="ignore"):
        skew = np.max(np.abs(cov - transposed), axis=(-2, -1))
    if np.any(skew > SYMMETRY_RTOL * scale):
        raise ValueError("covariance matrix is not symmetric")
    return 0.5 * (cov + transposed)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian state, fully specified by its covariance.

    Attributes:
        cov: 2n x 2n real symmetric covariance matrix in (q1, p1, ...)
            ordering, n >= 1; stored symmetrized and read-only.
        n_modes: number of bosonic modes, n, read off ``cov``.

    Because ``cov`` cannot change, the symplectic spectrum is computed at
    most once per state, as :attr:`symplectic_spectrum`, and shared by every
    purity test; :meth:`is_physical` goes through :func:`first_unphysical`
    like every other physicality test. States compare by identity and are
    hashable; compare ``cov`` to compare covariances.
    """

    cov: np.ndarray = field(repr=False)
    n_modes: int = field(init=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2 or not cov.size:
            raise ValueError(f"covariance shape {cov.shape} is not 2n x 2n with n >= 1")
        cov = symmetrize(cov)
        cov.flags.writeable = False
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "n_modes", cov.shape[0] // 2)

    @cached_property
    def symplectic_spectrum(self) -> np.ndarray:
        """Symplectic eigenvalues, ascending (a read-only array)."""
        spectrum = symplectic_eigenvalues(self.cov)
        spectrum.flags.writeable = False
        return spectrum

    def is_physical(self) -> bool:
        return first_unphysical(self.cov[None], PHYSICALITY_ATOL) is None

    def is_pure(self, atol: float = PURITY_ATOL) -> bool:
        return bool(is_pure_spectrum(self.symplectic_spectrum, atol))

    def _check_mode(self, mode: int):
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode index {mode} out of range for {self.n_modes} modes")


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum state, covariance I/2."""
    return GaussianState(VACUUM_VAR * np.eye(2 * n_modes))


def thermal(n_modes: int, occupancy) -> GaussianState:
    """Product of thermal states with mean occupation ``occupancy`` per mode.

    ``occupancy`` may be a scalar or a length-``n_modes`` sequence.
    """
    nbar = np.broadcast_to(np.asarray(occupancy, dtype=float), (n_modes,))
    if np.any(nbar < 0):
        raise ValueError("thermal occupancy must be non-negative")
    diag = np.repeat(nbar + VACUUM_VAR, 2)
    return GaussianState(np.diag(diag))


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
    return GaussianState(matrix @ state.cov @ matrix.T)


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
    state = GaussianState(cov)
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
    vecs = np.zeros((graph.n_nodes, 2 * state.n_modes))
    nodes = np.arange(graph.n_nodes)
    vecs[nodes, 2 * nodes + 1] = 1.0
    for j, k, w in graph.edges:
        vecs[j, 2 * k] -= w
        vecs[k, 2 * j] -= w
    return np.array([vec @ state.cov @ vec for vec in vecs])


def condition_on_homodyne(covs: np.ndarray, modes, phases, keep) -> np.ndarray:
    """Measure several modes at once, for each covariance in a stack
    ``(N, 2n, 2n)``, and return the ``(N, 2k, 2k)`` stack of kept-mode
    covariances, symmetrized.

    Mode ``modes[i]`` is measured in X_phi = q cos(phi) + p sin(phi) at
    ``phi = phases[i]``. With R the rows of these quadratures, the kept
    modes K (in the order given) are left with the Gaussian conditional
    covariance ``sigma_KK - sigma_KR (R sigma R^T)^-1 sigma_RK``, whatever
    the outcomes and the measurement order. Modes neither measured nor kept
    are traced out. Measured and kept modes must all be distinct, at least
    one mode must be kept, and there must be one phase per measured mode.
    Every matrix must be symmetric and, if anything is measured, physical;
    symmetry is checked first, then physicality, both before any
    arithmetic. Each entry of the result is the one a stack holding only
    its matrix gives.
    """
    covs = np.asarray(covs, dtype=float)
    modes = np.asarray(modes, dtype=int)
    n_modes = covs.shape[-1] // 2
    nodes = [*modes.tolist(), *keep]
    if len(set(nodes)) < len(nodes) or not set(nodes) <= set(range(n_modes)):
        raise ValueError("measured and kept modes must be distinct modes of the state")
    if not len(keep):
        raise ValueError("must keep at least one mode")
    if len(phases) != len(modes):
        raise ValueError(f"{len(phases)} phases for {len(modes)} measured modes")
    covs = symmetrize(covs)
    if len(modes):
        unphysical = first_unphysical(covs, PHYSICALITY_ATOL)
        if unphysical is not None:
            raise ValueError("input state is unphysical (min symplectic eigenvalue "
                             f"{unphysical[1]:.3e})")
    rows = np.zeros((len(modes), 2 * n_modes))
    j = np.arange(len(modes))
    rows[j, 2 * modes] = np.cos(phases)
    rows[j, 2 * modes + 1] = np.sin(phases)
    idx = quadratures(keep)
    sigma_kr = covs[:, idx] @ rows.T
    gain = np.linalg.solve(rows @ covs @ rows.T, np.swapaxes(sigma_kr, -1, -2))
    return symmetrize(covs[:, idx][:, :, idx] - sigma_kr @ gain)


def _overlap(cov_sum: np.ndarray):
    """tr(rho1 rho2) for zero-mean Gaussians, 1/sqrt(det(sigma1 + sigma2)),
    for one covariance sum or each of a stack."""
    sign, logdet = np.linalg.slogdet(cov_sum)
    if np.any(sign <= 0):
        raise ValueError("covariance sum is not positive definite")
    return np.exp(-0.5 * logdet)


def _mixed_fidelity(covs: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Unclipped fidelity of each mixed covariance ``s1`` in a stack to the
    mixed ``ref = s2``: the closed form of Banchi, Braunstein & Pirandola,
    PRL 115, 260501 (2015), via W.T (s1+s2)^-1 (W/4 + s2 W s1), W = Omega."""
    dim = ref.shape[-1]
    omega = symplectic_form(dim // 2)
    sum_inv = np.linalg.inv(covs + ref)
    v_aux = omega.T @ sum_inv @ (0.25 * omega + ref @ omega @ covs)
    w = v_aux @ omega
    inner = np.eye(dim) + 0.25 * np.linalg.inv(w @ w)
    # scipy>=1.10 does not promise a batched sqrtm, so take one at a time.
    core = np.array([sla.sqrtm(m).real for m in inner]).reshape(inner.shape)
    total = 2.0 * (core + np.eye(dim)) @ v_aux
    return np.sqrt(np.linalg.det(total) * np.linalg.det(sum_inv))


def fidelity(state1: GaussianState, state2: GaussianState) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 of two
    zero-mean states: the one-entry case of :func:`fidelity_to`, under its
    contract (both physical, equal mode counts; ``state2`` is checked last).

    Returns:
        Fidelity in [0, 1]; 1 iff the covariances coincide.
    """
    return float(fidelity_to(state1.cov[None], state2)[0])


def fidelity_to(covs: np.ndarray, reference: GaussianState) -> np.ndarray:
    """Uhlmann fidelity of each covariance in a stack ``(N, 2n, 2n)`` to one
    zero-mean state, clipped to 1; the package's only fidelity kernel.

    Every matrix must be symmetric with the reference's shape, and all of
    them and then the reference physical (one :func:`first_unphysical`
    call). A pair with a pure state gets the exact overlap
    ``1/sqrt(det(sigma_i + sigma_ref))``; only pairs of two mixed states take
    the general closed form. Each entry is the one a stack of one gives.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != reference.cov.shape:
        raise ValueError("fidelity needs equal mode counts")
    covs = symmetrize(covs)
    unphysical = first_unphysical(np.concatenate([covs, reference.cov[None]]),
                                  PHYSICALITY_ATOL)
    if unphysical is not None:
        raise ValueError("fidelity input is unphysical "
                         f"(min symplectic eigenvalue {unphysical[1]:.3e})")
    fids = _overlap(covs + reference.cov)
    if not reference.is_pure():
        mixed = ~is_pure_spectrum(symplectic_eigenvalues(covs), PURITY_ATOL)
        fids[mixed] = _mixed_fidelity(covs[mixed], reference.cov)
    return np.minimum(1.0, fids)
