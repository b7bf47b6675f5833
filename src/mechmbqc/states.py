"""Covariance-matrix representation of Gaussian states and the exact
operations on them: symplectic maps, CZ entangling gates, cluster-state
construction, projective homodyne measurement and Uhlmann fidelity.

Conventions used throughout the package:

* quadrature ordering ``(q1, p1, ..., qn, pn)``,
* hbar = 1 with vacuum variance 1/2 per quadrature,
* all states are zero-mean; only second moments are tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

# Vacuum variance per quadrature.
VACUUM_VAR = 0.5

# Relative tolerance for symmetry of covariance and diffusion matrices.
SYMMETRY_RTOL = 1e-10

# Largest max-norm error of M Omega M^T against Omega for a symplectic M.
SYMPLECTIC_ATOL = 1e-10

# Slack allowed on the minimum symplectic eigenvalue of a physical state.
PHYSICALITY_ATOL = 1e-9

# Largest distance from vacuum of any symplectic eigenvalue of a pure state.
PURITY_ATOL = 1e-7


class UnphysicalStateError(ValueError):
    """A state the exact operations cannot use: a numerical failure."""


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


def is_symplectic(matrix: np.ndarray) -> bool:
    """Check M Omega M^T = Omega to within ``SYMPLECTIC_ATOL`` in max norm."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] % 2:
        return False
    omega = symplectic_form(matrix.shape[0] // 2)
    return bool(np.max(np.abs(matrix @ omega @ matrix.T - omega)) < SYMPLECTIC_ATOL)


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


def first_unphysical(covs: np.ndarray):
    """The first matrix of a stack ``(N, 2n, 2n)`` that is not a physical
    state, as ``(index, min symplectic eigenvalue)``, or ``None``.

    A state's ``cov + i Omega / 2`` is positive semidefinite, which holds
    exactly when ``cov`` is positive definite and its minimum symplectic
    eigenvalue ``nu_min`` is at least 1/2 (Simon, Mukunda & Dutta, PRA 49,
    1567 (1994)). A matrix passes if its least eigenvalue is at least
    ``-slack`` and its ``nu_min`` at least ``1/2 - slack``, with the one
    slack ``max(PHYSICALITY_ATOL, 1e-10 * max|cov|)``, scaled because
    highly squeezed covariances stress the eigensolvers. A matrix that is
    not finite fails as ``-inf``, and no later matrix is examined; one below
    the first bound has no symplectic spectrum, and fails with its least
    eigenvalue. This is the one physicality test of the package.

    A verdict is reached in two stages. A finite, non-empty stack is first
    certified by one batched Cholesky of the Hermitian ``cov + i c Omega``
    with ``c = 1/2 - slack``, which exists exactly when every ``cov`` is
    positive definite with ``nu_min >= c``, and then the answer is
    ``None``. Only a stack the certificate does not pass, or one holding a
    NaN or inf, takes the spectral path: one batched ``eigvalsh`` of the
    covariances and one symplectic spectrum decide, find the first failing
    index and report its value.
    """
    covs = np.asarray(covs, dtype=float)
    # NaN and inf propagate through the max, so it also tells finiteness.
    scale = np.max(np.abs(covs), axis=(-2, -1))
    finite = np.isfinite(scale)
    n_finite = len(covs) if finite.all() else int(np.argmin(finite))
    checked = covs[:n_finite]
    slack = np.maximum(PHYSICALITY_ATOL, 1e-10 * scale[:n_finite])
    if n_finite and n_finite == len(covs):
        hermitian = np.empty(covs.shape, dtype=complex)
        hermitian.real = covs
        np.multiply((VACUUM_VAR - slack)[:, None, None],
                    symplectic_form(covs.shape[-1] // 2), out=hermitian.imag)
        try:
            np.linalg.cholesky(hermitian)
            return None
        except np.linalg.LinAlgError:
            pass
    # |eig(Omega cov)| can reach 1/2 for an indefinite cov, so definiteness is tested apart.
    least = np.linalg.eigvalsh(checked)[:, 0]
    definite = least >= -slack
    nu_min = np.where(definite, symplectic_eigenvalues(checked)[:, 0], least)
    unphysical = ~(definite & (nu_min >= VACUUM_VAR - slack))
    if np.any(unphysical):
        first = int(np.argmax(unphysical))
        return first, float(nu_min[first])
    if n_finite < len(covs):
        return n_finite, float("-inf")
    return None


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` or a numpy integer, and not a bool:
    the package's one test of an integer argument."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def shown(value) -> str:
    """``repr(value)`` for an error message, or, for an ``int`` too long for
    Python's string conversion, its sign and count of digits."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to show"
        magnitude = abs(value)
        digits = int(math.log10(magnitude)) + 1
        # log10 may round across a power of ten; the exact comparisons mend that.
        digits += (10 ** digits <= magnitude) - (10 ** (digits - 1) > magnitude)
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def real_number(value, name: str) -> float:
    """``value`` as a plain ``float``: the package's one rule for a real
    argument. It must be an ``int``, a ``float`` or a numpy real, and not a
    bool, a string or bytes, and an ``int`` must lie within the float range;
    otherwise a ``ValueError`` names ``name`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number within the float range, "
                         f"got {shown(value)}") from None


def is_index(value, size: int) -> bool:
    """Whether ``value`` is an :func:`is_integer` (not a bool, not a float)
    in ``range(size)``: the package's one test of a mode or node index."""
    return is_integer(value) and 0 <= value < size


def quadratures(modes, n_modes: int) -> np.ndarray:
    """Row indices ``2m, 2m + 1`` of each listed mode ``m`` of an
    ``n_modes``-mode state, in order; a mode that is not an :func:`is_index`
    of the state is a ``ValueError``."""
    for mode in modes:
        if not is_index(mode, n_modes):
            raise ValueError(f"mode {shown(mode)} is not an integer mode "
                             f"of a {n_modes}-mode state")
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
    like every other physicality test, also at most once per state, and
    :meth:`is_pure` requires it. States compare by identity and are
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

    @cached_property
    def _physical(self) -> bool:
        return first_unphysical(self.cov[None]) is None

    def is_physical(self) -> bool:
        return self._physical

    def is_pure(self, atol: float = PURITY_ATOL) -> bool:
        """Physical, with every symplectic eigenvalue within ``atol`` of vacuum."""
        return bool(np.all(np.abs(self.symplectic_spectrum - VACUUM_VAR) < atol)) \
            and self.is_physical()


def vacuum(n_modes: int) -> GaussianState:
    """The n-mode vacuum state, covariance I/2."""
    return GaussianState(VACUUM_VAR * np.eye(2 * n_modes))


def thermal(n_modes: int, occupancy) -> GaussianState:
    """Product of thermal states with mean occupation ``occupancy`` per mode.

    ``occupancy`` may be a scalar or a length-``n_modes`` sequence; an
    occupancy that is not finite and >= 0 is a ``ValueError``.
    """
    nbar = np.broadcast_to(np.asarray(occupancy, dtype=float), (n_modes,))
    if not np.all((0.0 <= nbar) & (nbar < np.inf)):
        raise ValueError("thermal occupancy must be non-negative and finite")
    diag = np.repeat(nbar + VACUUM_VAR, 2)
    return GaussianState(np.diag(diag))


def db_to_squeeze_parameter(r_db: float) -> float:
    """Convert squeezing quoted in dB to the dimensionless parameter r.

    Defined so the squeezed variance ratio is ``10**(-r_db / 10)``, i.e.
    ``r = r_db * ln(10) / 20``.
    """
    return float(r_db) * np.log(10.0) / 20.0


def embed_single_mode(matrix2: np.ndarray, n_modes: int, mode: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on ``mode`` into a 2n x 2n identity; a
    ``mode`` that is not an :func:`is_index` of n modes is a ``ValueError``."""
    if not is_index(mode, n_modes):
        raise ValueError(f"mode {shown(mode)} is not an integer mode "
                         f"of a {n_modes}-mode state")
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
    A negative ``r_db`` or a bad ``mode`` (:func:`embed_single_mode`) is a
    ``ValueError``.
    """
    if r_db < 0:
        raise ValueError("squeezing in dB must be non-negative")
    r = db_to_squeeze_parameter(r_db)
    local = np.diag([np.exp(r), np.exp(-r)])
    return apply_symplectic(state, embed_single_mode(local, state.n_modes, mode))


def cz_matrix(n_modes: int, j: int, k: int, weight: float = 1.0) -> np.ndarray:
    """Symplectic matrix of CZ between modes j and k: p_j += w q_k, p_k += w q_j.
    Unless j and k are distinct :func:`is_index` of n modes, a ``ValueError``."""
    if not (is_index(j, n_modes) and is_index(k, n_modes)) or j == k:
        raise ValueError(f"CZ needs two distinct modes of {n_modes}, "
                         f"got ({shown(j)}, {shown(k)})")
    full = np.eye(2 * n_modes)
    full[2 * j + 1, 2 * k] = weight
    full[2 * k + 1, 2 * j] = weight
    return full


def apply_cz(state: GaussianState, j: int, k: int, weight: float = 1.0) -> GaussianState:
    """Apply the controlled-phase gate of given weight between two modes;
    bad modes are a ``ValueError`` (:func:`cz_matrix`)."""
    return apply_symplectic(state, cz_matrix(state.n_modes, j, k, weight))


@dataclass(frozen=True)
class GraphSpec:
    """Weighted graph describing a cluster state's nodes and CZ edges.

    ``n_nodes`` must be an integer (not a bool) of at least 1, and every
    edge must join two distinct :func:`is_index` nodes with a finite weight,
    or the graph raises ``ValueError``.
    """

    n_nodes: int
    edges: tuple = ()

    def __post_init__(self):
        n_nodes = self.n_nodes
        if not (is_integer(n_nodes) and n_nodes >= 1):
            raise ValueError(f"a graph needs an integer node count of at least 1, "
                             f"got {shown(n_nodes)}")
        object.__setattr__(self, "n_nodes", int(n_nodes))
        normalized = []
        for edge in self.edges:
            if len(edge) == 2:
                j, k = edge
                weight = 1.0
            else:
                j, k, weight = edge
            if j == k:
                raise ValueError("graph may not contain self-loops")
            if not (is_index(j, self.n_nodes) and is_index(k, self.n_nodes)):
                raise ValueError(f"edge ({shown(j)}, {shown(k)}) does not join two integer "
                                 f"nodes of a {self.n_nodes}-node graph")
            if not np.isfinite(float(weight)):
                raise ValueError(f"edge ({j}, {k}) has a non-finite weight {weight!r}")
            normalized.append((int(j), int(k), float(weight)))
        object.__setattr__(self, "edges", tuple(normalized))

    @staticmethod
    def linear(n_nodes: int, weight: float = 1.0) -> "GraphSpec":
        """Chain graph 0-1-...-(n-1)."""
        n_nodes = GraphSpec(n_nodes).n_nodes  # checks the count before range() sees it
        return GraphSpec(n_nodes, tuple((j, j + 1, weight) for j in range(n_nodes - 1)))


def build_cluster(graph: GraphSpec, r_cluster_db: float,
                  inputs: dict = None) -> GaussianState:
    """Build a Gaussian cluster state on ``graph``.

    ``inputs`` maps nodes to single-mode states that are placed there
    unchanged. Every other node starts as a momentum-squeezed vacuum at
    ``r_cluster_db``. Each weighted edge is then applied as a CZ gate. An
    input key that is not an :func:`is_index` of the graph's nodes, or a
    state that is not single-mode, is a ``ValueError``.
    """
    inputs = dict(inputs or {})
    cov = VACUUM_VAR * np.eye(2 * graph.n_nodes)
    for node, state in inputs.items():
        if not is_index(node, graph.n_nodes) or state.n_modes != 1:
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


def condition_on_homodyne(covs: np.ndarray, modes, keep) -> np.ndarray:
    """Measure the momentum of several modes at once, for each covariance in
    a stack ``(N, 2n, 2n)``, and return the ``(N, 2k, 2k)`` stack of
    kept-mode covariances, symmetrized.

    With R the momentum rows ``2m + 1`` of the measured modes, the kept modes
    K (in the order given) are left with ``sigma_KK - sigma_KR sigma_RR^-1
    sigma_RK``, whatever the outcomes and the measurement order; modes
    neither measured nor kept are traced out. Measured and kept modes must
    all be distinct :func:`is_index` of the state's modes, and at least one
    kept, or the call raises ``ValueError``. Every matrix must be symmetric
    and, if anything is measured, physical. Modes, then symmetry, then
    physicality are checked, all before any arithmetic. Each entry of the
    result is the one a stack holding only its matrix gives.
    """
    covs = np.asarray(covs, dtype=float)
    n_modes = covs.shape[-1] // 2
    nodes = [*modes, *keep]
    if not all(is_index(node, n_modes) for node in nodes) or len(set(nodes)) < len(nodes):
        raise ValueError("measured and kept modes must be distinct modes of the state")
    modes = np.asarray(modes, dtype=int)
    if not len(keep):
        raise ValueError("must keep at least one mode")
    covs = symmetrize(covs)
    if len(modes):
        unphysical = first_unphysical(covs)
        if unphysical is not None:
            raise UnphysicalStateError("input state is unphysical (min symplectic "
                                       f"eigenvalue {unphysical[1]:.9g})")
    idx = quadratures(keep, n_modes)
    rows = 2 * modes + 1
    sigma_kr = covs[:, idx][:, :, rows]
    gain = np.linalg.solve(covs[:, rows][:, :, rows], np.swapaxes(sigma_kr, -1, -2))
    return symmetrize(covs[:, idx][:, :, idx] - sigma_kr @ gain)


def _overlap(cov_sum: np.ndarray):
    """tr(rho1 rho2) for zero-mean Gaussians, 1/sqrt(det(sigma1 + sigma2)),
    for one covariance sum or each of a stack."""
    sign, logdet = np.linalg.slogdet(cov_sum)
    if np.any(sign <= 0):
        raise UnphysicalStateError("covariance sum is not positive definite")
    return np.exp(-0.5 * logdet)


def fidelity(state1: GaussianState, state2: GaussianState) -> float:
    """Uhlmann fidelity F = (tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 of a
    zero-mean state to a pure zero-mean reference ``state2``: the one-entry
    case of :func:`fidelity_to`, under its contract.

    Returns:
        Fidelity in [0, 1]; 1 iff the covariances coincide.
    """
    return float(fidelity_to(state1.cov[None], state2)[0])


def fidelity_to(covs: np.ndarray, reference: GaussianState) -> np.ndarray:
    """Uhlmann fidelity of each covariance in a stack ``(N, 2n, 2n)`` to one
    pure zero-mean reference, the exact overlap ``1/sqrt(det(sigma_i +
    sigma_ref))`` clipped to 1; the package's only fidelity kernel.

    Every matrix must be symmetric with the reference's shape, all of them
    and then the reference physical (one :func:`first_unphysical` call), and
    the reference pure; the error names an unphysical matrix. Each entry is
    the one a stack of one gives.
    """
    covs = np.asarray(covs, dtype=float)
    if covs.ndim != 3 or covs.shape[1:] != reference.cov.shape:
        raise ValueError("fidelity needs equal mode counts")
    covs = symmetrize(covs)
    unphysical = first_unphysical(np.concatenate([covs, reference.cov[None]]))
    if unphysical is not None:
        index, nu_min = unphysical
        where = f"output entry {index + 1} of {len(covs)}" if index < len(covs) else "the reference"
        raise UnphysicalStateError(f"fidelity input is unphysical ({where}, min "
                                   f"symplectic eigenvalue {nu_min:.9g})")
    if not reference.is_pure():
        nu = reference.symplectic_spectrum
        raise UnphysicalStateError("fidelity reference is not pure (symplectic "
                                   f"eigenvalues {nu[0]:.9g} to {nu[-1]:.9g})")
    return np.minimum(1.0, _overlap(covs + reference.cov))
