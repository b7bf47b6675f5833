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

import math
import sys
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np
from scipy import linalg as sla
from scipy.linalg.lapack import dgesv

try:  # scipy's private Pade kernels behind expm; their signature has changed before
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
except ImportError:
    pade_UV_calc = pick_pade_structure = None

from .states import (
    SYMMETRY_RTOL,
    GaussianState,
    UnphysicalStateError,
    db_to_squeeze_parameter,
    first_unphysical,
    is_integer,
    shown,
    symplectic_form,
)


class PhysicalityError(UnphysicalStateError):
    """Raised when a propagated covariance stops being a physical state."""

    def __init__(self, t: float, nu_min: float):
        super().__init__(
            f"covariance lost physicality at t = {t:.6e} "
            f"(min symplectic eigenvalue {nu_min:.9g})"
        )
        self.t = t
        self.nu_min = nu_min

    def __reduce__(self):
        # Rebuild from (t, nu_min), so the error crosses a process boundary.
        return type(self), (self.t, self.nu_min)


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
    (:attr:`bbt`, the grid rule's :attr:`rate_norms` and the exact flow
    :attr:`propagator`) is computed once and stays valid for the object's
    lifetime.
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
        scale = max(1.0, np.max(np.abs(diffusion)))
        if np.max(np.abs(diffusion - diffusion.T)) > SYMMETRY_RTOL * scale:
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
    def rate_norms(self) -> tuple:
        """``(drift_norm, cols, bbt_norm)`` for :func:`_grid_steps`: the
        spectral norms of the drift and of B B^T (0 if B is empty), and the
        read-only indices of the columns where B B^T is non-zero."""
        cols = np.flatnonzero(np.abs(self.bbt).max(axis=0))
        cols.flags.writeable = False
        bbt_norm = float(np.linalg.norm(self.bbt, 2)) if cols.size else 0.0
        return float(np.linalg.norm(self.drift, 2)), cols, bbt_norm

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
    of Van Loan, IEEE TAC 23, 1978). With Phi = expm(h H) the flow over an
    interval h is sigma <- (Phi21 + Phi22 sigma)(Phi11 + Phi12 sigma)^-1.

    :meth:`sample` applies the flow of one interval length repeatedly and
    writes each sample into a preallocated stack; :meth:`advance` is
    :meth:`sample` of one entry, and :meth:`sample_chains` advances
    independent chains, each of its own interval length, in lockstep. One
    kernel, :meth:`_step`, forms every sample, of a lone chain or of a stack
    of chains: one product, one LAPACK ``dgesv`` per chain and one
    symmetrization, whatever h. The map it applies, :func:`_flow` of the
    interval length, is kept for the last length used, in one slot. Let
    lambda be the largest real part in the spectrum of H, by which X grows.

    * If h lambda <= 1, the interval is one Davison-Maki step: [X; Y] =
      Phi[:, :n] + Phi[:, n:] sigma, then X^T sigma' = Y^T. X grows by at
      most about e, so this solve stays well conditioned.
    * A longer interval takes the interval form of the same map (Anderson &
      Moore, *Optimal Filtering*, 1979, ch. 6),

          sigma <- W_c + Psi sigma (I + W_o sigma)^-1 Psi^T,

      with W_c and W_o symmetric positive semidefinite for a physical flow.
      The sample solves (I + sigma W_o) Z = sigma Psi^T and returns
      W_c + Psi Z. For physical sigma the eigenvalues of I + sigma W_o are
      at least 1, so the solve does not degrade as h grows, whereas
      Phi11 + Phi12 sigma grows as e^(h lambda). The map is built by
      doubling: Phi = expm(2^-k h H), with k the fewest halvings that bring
      2^-k h lambda to at most 1, gives the piece W_c = Phi21 Phi11^-1,
      Psi = Phi11^-T and W_o = Phi11^-1 Phi12, and each of k doublings,
      with M = I + W_c W_o, sets Psi <- Psi M^-1 Psi,
      W_c <- W_c + Psi M^-1 W_c Psi^T and W_o <- W_o + Psi^T W_o M^-1 Psi.

    A flow stores its Y rows halved (in the interval form, W_c and
    the Psi rows of the slope), so the solve yields half the new covariance
    and its symmetric part is S + S^T, one addition. Halving is exact in
    binary floating point away from underflow, so the samples carry the
    bits of the unhalved update symmetrized as (S + S^T) / 2.

    Each Phi comes from :func:`_expm`: scipy's Pade kernels called directly,
    with the bits of ``scipy.linalg.expm``, which it falls back to for a
    triangular or diagonal h H.

    The slot ``_last`` holds ``(h, flow)``; :func:`prepare_steps` may fill it
    before a run. A lookup reads it once and, for another length, builds that
    flow and only then overwrites it, so a rejected h leaves it as it was. A
    propagator may serve several threads at once: each thread works in
    scratch of its own, and a race on the slot costs at most a rebuild. A
    singular matrix in any solve, the flow's included, raises
    :class:`numpy.linalg.LinAlgError`; an interval h that is not finite and
    >= 0 raises ``ValueError``.
    """

    def __init__(self, coeffs: EvolutionCoefficients):
        a, d = coeffs.drift, coeffs.dim
        self.dim = d
        # H = [[-A^T, G], [D, A]], filled block by block into one read-only array.
        self.hamiltonian = np.empty((2 * d, 2 * d))
        np.negative(a.T, out=self.hamiltonian[:d, :d])
        self.hamiltonian[:d, d:] = coeffs.bbt
        self.hamiltonian[d:, :d] = coeffs.diffusion
        self.hamiltonian[d:, d:] = a
        self.hamiltonian.flags.writeable = False
        self.rate = max(0.0, float(np.max(np.linalg.eigvals(self.hamiltonian).real)))
        self._witnesses = _off_diagonal_witnesses(self.hamiltonian)
        self._last = None, None

    def _flow(self, h: float) -> tuple:
        """The flow of the interval ``h``: the slot's, if it holds ``h``."""
        last, flow = self._last
        if last != h:
            flow = _flow(self.hamiltonian, self.rate, self._witnesses, h)
            self._last = h, flow
        return flow

    def sample(self, sigma: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
        """Write the covariances after 1, 2, ..., ``len(out)`` intervals ``h``
        from ``sigma`` into the stack ``out``, and return it: one chain of
        :meth:`_step` on lone matrices.

        If the flow or the solve of entry k fails, the ``LinAlgError`` raised
        carries ``samples_written = k``: the entries before it hold their
        samples. An empty ``out`` is returned as it is, and no flow is built
        for it.
        """
        if not len(out):
            return out
        k = 0
        try:
            flow, step, work = self._flow(h), self._step, _scratch(self.dim)
            for k in range(len(out)):
                sigma = step(sigma, flow, work, out[k])
        except np.linalg.LinAlgError as error:
            error.samples_written = k
            raise
        return out

    def sample_chains(self, chains: list, out: np.ndarray) -> np.ndarray:
        """Write independent chains of samples into the stack ``out`` in
        lockstep, and return it.

        Chain ``(sigma, h, first, count)`` writes what :meth:`sample` of
        ``count`` intervals ``h`` from ``sigma`` writes, with its bits, into
        ``out[first:first + count]``; the chains are in time order and do not
        overlap. Their flows are looked up in that order, as by one
        :meth:`sample` call per chain. The chains of each form and count then
        advance together: per interval, one :meth:`_step` of their stack, so
        every sample is still one ``dgesv`` of its own.

        If a flow or a solve fails, the chains are redone one :meth:`sample`
        at a time, in time order: the first failure in time is raised, its
        ``LinAlgError`` carrying ``samples_written``, the index in ``out`` of
        the sample that failed, with every sample of a chain before it
        written.
        """
        try:
            # Chains of one form and one count, in time order. A Davison-Maki
            # chain does not join the interval form's stack as one with Psi = I
            # and W_c = 0: adding that W_c flips the sign of exact zeros.
            groups = {}
            for sigma, h, first, count in chains:
                flow = self._flow(h)
                groups.setdefault((len(flow), count), []).append((first, sigma, *flow))
            for (_, count), group in groups.items():
                firsts, sigmas, *flow = zip(*group)
                sigmas, flow = np.stack(sigmas), [np.stack(part) for part in flow]
                work = _scratch(self.dim, len(group))
                gaps = {b - a for a, b in zip(firsts, firsts[1:])} or {1}
                for k in range(count):
                    # Evenly spaced samples are written in place, others copied.
                    dest = out[firsts[0] + k::min(gaps)][:len(group)] if len(gaps) == 1 else sigmas
                    sigmas = self._step(sigmas, flow, work, dest)
                    if len(gaps) > 1:
                        out[[first + k for first in firsts]] = sigmas
        except np.linalg.LinAlgError:
            for sigma, h, first, count in chains:
                try:
                    self.sample(sigma, h, out[first:first + count])
                except np.linalg.LinAlgError as error:
                    error.samples_written += first
                    raise
        return out

    def _step(self, sigmas, flow, work, out) -> np.ndarray:
        """One sample of each chain of a stack, the one code that forms a
        sample: entry i of ``out`` is the flow of entry i of the stacks
        ``flow`` applied to entry i of ``sigmas``, in the :func:`_scratch`
        ``work`` of the stack's shape. A lone chain may come as lone
        matrices, with no stack axis. ``flow`` is ``(offsets, slopes)`` of
        [X; Y / 2] = offset + slope sigma, plus ``(W_c / 2, Psi)`` in the
        interval form. ``out`` may be ``sigmas``; a singular solve raises
        :class:`numpy.linalg.LinAlgError`.
        """
        offsets, slopes, *post = flow
        xy, solves, half, half_t, psi_z, psi_z_t = work
        np.matmul(slopes, sigmas, xy)
        xy += offsets
        # Y X^-1 is symmetric, so it equals X^-T Y^T, which one solve per chain
        # gives in place; in the interval form, (I + sigma W_o) Z = sigma Psi^T.
        for x_t, y_t in solves:
            _solve(x_t, y_t)
        if post:
            w_c, psi = post
            np.matmul(psi, half, psi_z)
            psi_z += w_c
            half, half_t = psi_z, psi_z_t
        return np.add(half, half_t, out)

    def advance(self, sigma: np.ndarray, h: float) -> np.ndarray:
        """Covariance after an interval ``h``, starting from ``sigma``:
        :meth:`sample` of one entry."""
        return self.sample(sigma, h, np.empty((1, self.dim, self.dim)))[0]


def _flow(hamiltonian: np.ndarray, rate: float, witnesses: tuple, h: float):
    """``(offset, slope)`` of the interval ``h`` of the flow of
    :class:`Propagator` with H ``hamiltonian``, of largest growth rate
    ``rate`` and :func:`_off_diagonal_witnesses` ``witnesses``, with
    [X; Y / 2] = offset + slope sigma, for a Davison-Maki step, or
    ``(offset, slope, W_c / 2, Psi)`` for the interval form."""
    # h = 0 is the identity flow.
    if not 0.0 <= h < math.inf:
        raise ValueError(f"interval h must be finite and non-negative, got {h!r}")
    halvings = _halvings(h, rate)
    phi = _expm(math.ldexp(h, -halvings), hamiltonian, witnesses)
    d = len(hamiltonian) // 2
    if halvings:
        return _interval_flow(*_doubled_map(phi, d, halvings))
    phi[d:] *= 0.5
    return np.ascontiguousarray(phi[:, :d]), np.ascontiguousarray(phi[:, d:])


def _interval_flow(w_c: np.ndarray, psi: np.ndarray, w_o: np.ndarray) -> tuple:
    """The interval-form flow ``(offset, slope, W_c / 2, Psi)`` of one
    :func:`_doubled_map` result."""
    d = len(psi)
    return np.eye(2 * d, d), np.vstack([w_o, 0.5 * psi]), 0.5 * w_c, psi


def _halvings(h: float, rate: float) -> int:
    """The fewest k >= 0 with 2^-k h rate <= 1, for finite h, rate >= 0.

    The exponents of h, of rate and of their mantissas' product add exactly,
    so h rate is never formed and cannot overflow. Scaling by a power of two
    is exact in the normal range, so there this is the exponent of the
    rounded h rate; below it, and for a zero product, it is 0.
    """
    (m_h, e_h), (m_rate, e_rate) = math.frexp(h), math.frexp(rate)
    mantissa, exponent = math.frexp(m_h * m_rate)
    return max(0, exponent + e_h + e_rate - (mantissa == 0.5)) if mantissa else 0


# Per thread, the scratch of :meth:`Propagator._step` by dimension and stack
# shape. A thread runs one step at a time, so its propagators can share it.
_scratches = threading.local()


def _scratch(d: int, *shape) -> list:
    """The scratch of :meth:`Propagator._step` on stacks of ``shape``, ``()``
    for lone matrices, of dimension ``d``: per chain [X; Y / 2], its
    Fortran-ordered views X^T and Y^T / 2 that dgesv solves in place, the
    solution Z read back from Y^T / 2 and its transpose, and the interval
    form's Psi Z and its transpose. Each thread builds it once and reuses it,
    and threads never share it."""
    kept = vars(_scratches)
    if (d, shape) not in kept:
        scratch = np.empty((*shape, 3 * d, d))
        xy, z_t, psi_z = scratch[..., :2 * d, :], scratch[..., d:2 * d, :], scratch[..., 2 * d:, :]
        kept[d, shape] = [xy, [(x[:d].T, x[d:].T) for x in xy.reshape(-1, 2 * d, d)],
                          z_t.swapaxes(-1, -2), z_t, psi_z, psi_z.swapaxes(-1, -2)]
    return kept[d, shape]


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b by one LAPACK ``dgesv``, overwriting ``a`` and ``b``; a
    singular ``a`` raises :class:`numpy.linalg.LinAlgError`."""
    _, _, x, info = dgesv(a, b, 1, 1)  # overwrite_a, overwrite_b
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


@lru_cache(maxsize=None)
def _strict_triangles(n: int) -> tuple:
    """Read-only masks of the entries strictly below and strictly above the
    diagonal of an n x n matrix."""
    below = np.tri(n, n, -1, dtype=bool)
    below.flags.writeable = False
    return below, below.T


def _off_diagonal_witnesses(a: np.ndarray) -> tuple:
    """The largest |a_ij| strictly below and strictly above the diagonal
    (0 for none, NaN if one is NaN): :func:`_expm`'s exact test of whether a
    scaled ``a`` is triangular or diagonal."""
    below, above = _strict_triangles(len(a))
    return (float(np.abs(a[below]).max(initial=0.0)),
            float(np.abs(a[above]).max(initial=0.0)))


def _scipy_expm(scale: float, a: np.ndarray, witnesses: tuple) -> np.ndarray:
    """expm(scale a) by ``scipy.linalg.expm``."""
    return sla.expm(scale * a)


def _pade_expm(scale: float, a: np.ndarray, witnesses: tuple) -> np.ndarray:
    """expm(scale a) by the two compiled kernels that ``scipy.linalg.expm``
    runs (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009),
    called directly: the generic branch of ``expm`` replayed step for step,
    so the result has its bits, without its per-call bandwidth scan, checks
    and copies.

    ``witnesses`` are :func:`_off_diagonal_witnesses` of ``a``. Rounding is
    monotone, so scale a has a non-zero entry below (above) the diagonal iff
    the largest one scaled is non-zero. A triangular or diagonal scale a,
    which ``expm`` treats in branches of its own, and a kernel failure go to
    ``expm``, which then raises its own error.
    """
    below, above = witnesses
    if scale * below == 0.0 or scale * above == 0.0:
        return sla.expm(scale * a)
    work = np.empty((5, *a.shape))
    np.multiply(scale, a, out=work[0])
    order, squarings = pick_pade_structure(work)
    if order < 0 or pade_UV_calc(work, order) != 0:
        return sla.expm(scale * a)
    phi = work[0]
    for _ in range(squarings):
        phi = phi @ phi
    return phi


def _kernels_reproduce_expm() -> bool:
    """Whether the Pade kernels import and :func:`_pade_expm` gives the bits
    of ``scipy.linalg.expm`` on a fixed generic probe, large enough for
    squarings."""
    if pick_pade_structure is None:
        return False
    probe = np.array([[4.0, 8.0, 0.0, -4.0], [2.0, -4.0, 12.0, 0.0],
                      [8.0, 0.0, 4.0, 4.0], [-4.0, 4.0, 2.0, 8.0]])
    try:
        got = _pade_expm(1.0, probe, _off_diagonal_witnesses(probe))
    except Exception:  # any failure, e.g. another call convention: not used
        return False
    want = sla.expm(probe)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# The flow builder of every Propagator, decided once at import.
_expm = _pade_expm if _kernels_reproduce_expm() else _scipy_expm


def _doubled_map(phi: np.ndarray, d: int, doublings: int):
    """``(W_c, Psi, W_o)`` of the interval form of the flow ``phi`` composed
    with itself ``doublings`` times, one solve per flow and doubling (see
    :class:`Propagator`). ``phi`` is a stack of flows, all doubled as often,
    or a lone flow, and the three results have its stack shape: a run's
    chunk flows are built together (:func:`prepare_steps`) by the code that
    builds one.

    Every solve works in place on Fortran-ordered buffers allocated once per
    call, one set per flow: the first right-hand side [I, Phi21^T], then per
    doubling M = I + W_c W_o and [Psi, W_c Psi^T]. The products and sums are
    those of the plain formulas, in the same order, one product per flow on
    the layout a lone flow has, so each flow of a stack has the bits of the
    flow alone, and those of the formulas.
    """
    # Per flow, the transpose of a C-ordered 5d x d block: a Fortran-ordered d x 5d one.
    blocks = np.empty((*phi.shape[:-2], 5 * d, d))
    buffers = blocks.swapaxes(-1, -2)
    first, rhs, lhs = buffers[..., :2 * d], buffers[..., 2 * d:4 * d], buffers[..., 4 * d:]
    # Per flow, its views (M or Phi11^T, first right-hand side, doubling right-hand side).
    solves = [(block[4 * d:].T, block[:2 * d].T, block[2 * d:4 * d].T)
              for block in blocks.reshape(-1, 5 * d, d)]
    eye = np.eye(d)
    # Phi11^T [Psi, W_c] = [I, Phi21^T], and W_o = Psi^T Phi12.
    lhs[...] = phi[..., :d, :d].swapaxes(-1, -2)
    first[..., :d] = eye
    first[..., d:] = phi[..., d:, :d].swapaxes(-1, -2)
    for a, b, _ in solves:
        _solve(a, b)
    psi, w_c = first[..., :d], first[..., d:]
    w_o = psi.swapaxes(-1, -2) @ phi[..., :d, d:]
    w_c, w_o = 0.5 * (w_c + w_c.swapaxes(-1, -2)), 0.5 * (w_o + w_o.swapaxes(-1, -2))
    for _ in range(doublings):
        np.add(eye, w_c @ w_o, out=lhs)
        rhs[..., :d] = psi
        psi_t = psi.swapaxes(-1, -2)
        rhs[..., d:] = w_c @ psi_t
        for a, _, b in solves:
            _solve(a, b)
        m_psi, m_wc_psi = rhs[..., :d], rhs[..., d:]
        w_c, w_o, psi = w_c + psi @ m_wc_psi, w_o + psi_t @ w_o @ m_psi, psi @ m_psi
        w_c, w_o = 0.5 * (w_c + w_c.swapaxes(-1, -2)), 0.5 * (w_o + w_o.swapaxes(-1, -2))
    return w_c, psi, w_o


@dataclass(frozen=True)
class Trajectory:
    """Sampled covariance trajectory of one integration run."""

    times: np.ndarray
    covs: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


# Grid steps per inverse fastest rate in :func:`_grid_steps`.
DT_SAFETY = 20.0


def _grid_steps(coeffs: EvolutionCoefficients, horizon: float, starts: np.ndarray) -> list:
    """The grid rule of :func:`sample_step`: the grid step of each chunk of
    length ``horizon`` from the stack ``starts`` of its start covariances,
    one step per start.

    The propagation between samples is exact, so this step sets no accuracy;
    it fixes the sample times, which are part of every run's output (the
    maximum fidelity of a run is taken over them). It is sized against the
    fastest rate in the ODE. The linear part contributes the drift's spectral
    norm. The measurement nonlinearity enters through ``sigma B B^T``, which
    only reads the covariance columns of the monitored block, so the estimate
    is the spectral norm of ``B B^T`` times the norm of those columns (plus
    diffusive growth over the horizon) rather than of the full covariance.
    The two norms are computed once per coefficients
    (:attr:`EvolutionCoefficients.rate_norms`); a call, on a float64 stack,
    computes the columns' singular values in one batched SVD whose every
    entry has the bits of a call on that matrix alone. A start that is not
    finite fails that SVD with :class:`numpy.linalg.LinAlgError`.
    """
    drift_norm, cols, bbt_norm = coeffs.rate_norms
    rates = [drift_norm] * len(starts)
    if cols.size:
        # Diffusive growth per direction saturates once the local damping
        # balances it, so damped directions do not inflate long horizons.
        window = np.minimum(horizon, 1.0 / np.maximum(-np.diag(coeffs.drift), 1.0 / horizon))
        growth = float(np.max(np.diag(coeffs.diffusion) * window, initial=0.0))
        norms = np.linalg.svd(starts[:, :, cols], compute_uv=False).max(axis=1)
        rates = (drift_norm + bbt_norm * np.maximum(norms + growth, 1.0)).tolist()
    return [horizon if r <= 0.0 else min(horizon, 1.0 / (DT_SAFETY * r)) for r in rates]


def integrate(sigma0, coeffs: EvolutionCoefficients, t_total: float, dt: float,
              n_samples: int = 200) -> Trajectory:
    """Propagate the covariance exactly and sample it on a grid of step dt.

    The horizon is cut into ``ceil(t_total / dt)`` grid steps, the last one
    shortened to land on ``t_total``. A sample is stored every
    ``sample_every`` steps, with ``sample_every`` the smallest stride that
    keeps the count within ``n_samples``, and at ``t_total``. Between
    samples the covariance follows the exact flow of ``coeffs.propagator``,
    so ``dt`` only decides where samples fall. Every propagated sample is
    checked for physicality, all of them at once after the propagation, by
    :func:`~mechmbqc.states.first_unphysical`; a violation raises
    :class:`PhysicalityError` at the first offending sample.

    Args:
        sigma0: initial covariance (or GaussianState).
        coeffs: combined ODE coefficients.
        t_total: integration horizon (finite, >= 0).
        dt: grid step (finite, > 0).
        n_samples: cap on the number of stored samples (endpoints
            included), an integer of at least 2 (:func:`sample_cap`).

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
    n_samples = sample_cap(n_samples, "n_samples")

    return _sample_flow(sigma, coeffs, t_total, 1, dt, n_samples, 0.0)


def sample_cap(value, name: str) -> int:
    """A cap on the samples stored, as a plain ``int``: the package's one rule
    for it. ``value`` must be an :func:`~mechmbqc.states.is_integer` of at
    least 2, or a ``ValueError`` names ``name``."""
    if not (is_integer(value) and value >= 2):
        raise ValueError(f"{name} must be an integer of at least 2, got {shown(value)}")
    return int(value)


# Chunks per monitoring step in :func:`sample_step`. A chunk of over two
# samples lays its own grid from a dt suggested at its start, so early
# transients are sampled more densely than the rest of the step. The
# propagation itself is exact; the chunks only set the sample times, which
# the reported fidelity trace (and its maximum) is taken on.
CHUNKS_PER_STEP = 8


def sample_step(sigma: np.ndarray, coeffs: EvolutionCoefficients, t_mon: float,
                n_samples: int, t_offset: float) -> Trajectory:
    """The samples of one monitoring step: the exact flow of ``coeffs`` over
    ``t_mon`` from ``sigma``, its times counted from ``t_offset``. This is the
    one owner of a step's sample grid.

    The step is cut into ``CHUNKS_PER_STEP`` = 8 chunks of at most
    ``max(2, ceil(n_samples / 8))`` samples each, both ends included, so it
    stores at most ``1 + 8 * (max(2, ceil(n_samples / 8)) - 1)`` samples, its
    start included: 9 for any ``n_samples`` up to 16, 113 for 120, and fewer
    where a chunk's grid is coarser. The chunk ends come first, so the
    covariance a step leaves has the same bits at every ``n_samples``. A
    chunk that keeps more than its end then lays the grid that
    :func:`_grid_steps` gives its start. The samples after the start are
    guarded once, by :func:`check_samples`; see :func:`_sample_flow`. A
    ``t_mon`` that is negative or not finite is a ``ValueError``.
    """
    per_chunk = max(2, -(-n_samples // CHUNKS_PER_STEP))  # exact for any int
    return _sample_flow(sigma, coeffs, t_mon / CHUNKS_PER_STEP, CHUNKS_PER_STEP, None,
                        per_chunk, t_offset)


def prepare_steps(steps) -> None:
    """Build together the chunk flows of a run's monitoring steps, each
    ``(coeffs, t_mon)`` a step of :func:`sample_step`, before the first one.

    A step's first flow lookup is its chunk length. For each step whose
    propagator's slot does not hold that length, the ``expm`` of the chunk
    flow's piece is built on its own, then the pieces of one halvings count
    are doubled as one stack by :func:`_doubled_map`, with the bits of a lone
    build, and each flow is written into its propagator's slot. A chunk flow
    of no halvings is a lone ``expm`` and is left to the step.

    No build error escapes it. What it cannot build, an interval that is not
    finite and >= 0, a propagator or ``expm`` that fails, or a stack with a
    singular solve or a floating-point error, is left to the step as well, so
    every such error and warning surfaces at its step, as without this call.
    """
    stacks = {}  # (halvings, dim) -> {propagator: (h, phi)}
    with np.errstate(all="raise"):
        for coeffs, t_mon in steps:
            try:
                propagator, h = coeffs.propagator, t_mon / CHUNKS_PER_STEP
                if propagator._last[0] == h or not 0.0 <= h < math.inf:
                    continue
                halvings = _halvings(h, propagator.rate)
                if halvings:
                    phi = _expm(math.ldexp(h, -halvings), propagator.hamiltonian,
                                propagator._witnesses)
                    stacks.setdefault((halvings, propagator.dim), {})[propagator] = h, phi
            except (ArithmeticError, TypeError, ValueError):  # raised again at its step
                continue
        for (halvings, d), stack in stacks.items():
            try:
                doubled = _doubled_map(np.stack([phi for _, phi in stack.values()]), d, halvings)
            except (ArithmeticError, ValueError):  # a LinAlgError is a ValueError
                continue
            for (propagator, (h, _)), *parts in zip(stack.items(), *doubled):
                propagator._last = h, _interval_flow(*parts)


def _sample_flow(sigma: np.ndarray, coeffs: EvolutionCoefficients, chunk: float,
                 n_chunks: int, dt, n_samples: int, t_offset: float) -> Trajectory:
    """Sample the exact flow from ``sigma`` over ``n_chunks`` chunks of length ``chunk``,
    each on :func:`integrate`'s grid, of step ``dt`` or, for ``dt=None``, the step
    :func:`_grid_steps` gives its start, and at most ``n_samples`` samples, and guard
    all samples after the start with one :func:`check_samples`.

    The chunk ends come first, as one :meth:`Propagator.sample` chain of intervals
    ``chunk`` from ``sigma``, their times summed chunk by chunk. Two samples per chunk
    keep only the ends, whatever the step, so no step is needed. Otherwise the grid
    rule takes the stack of chunk starts, ``sigma`` and all ends but the last, once,
    and each chunk's interior is one chain of its grid's sample interval from its
    start. The chains are independent, so one :meth:`Propagator.sample_chains`
    call writes them all in lockstep into the step's one stack, allocated at its
    final size. A ``LinAlgError`` of the ends' chain, of the grid rule on a start
    that is not finite, or of an interior, a flow's build included, is raised
    after the samples before it in time are guarded. A ``chunk`` of 0 keeps only
    the start; a negative or non-finite one fails the flow's own check.
    """
    propagator, fault = coeffs.propagator, None
    n_chunks = n_chunks if chunk else 0
    starts = np.empty((1 + n_chunks, *sigma.shape))
    starts[0] = sigma
    try:
        propagator.sample(sigma, chunk, starts[1:])
    except np.linalg.LinAlgError as error:
        fault, starts = error, starts[:1 + error.samples_written]
    bounds = list(accumulate([t_offset] + [chunk] * n_chunks))  # chunk starts and ends
    times, covs, filled = bounds[:len(starts)], starts, len(starts)
    if n_samples > 2 and n_chunks:  # each chunk keeps more than its end
        known = min(len(starts), n_chunks)  # chunks whose start is known
        try:
            steps = [dt] * known if dt is not None else _grid_steps(coeffs, chunk, starts[:known])
        except np.linalg.LinAlgError as error:
            # The chunks before the first start that is not finite come first.
            fault, known = error, int(np.argmin(np.isfinite(starts[:known]).all(axis=(1, 2))))
            steps = _grid_steps(coeffs, chunk, starts[:known])
        times, grids = [t_offset], []
        for start, end, step in zip(bounds, bounds[1:], steps):
            # The floor binds only where chunk / step would overflow to inf.
            step = max(step, chunk / sys.float_info.max)
            n_steps = max(1, math.ceil(chunk / step))
            # The quotient is rounded to a float first, as it always was;
            # past 2^53 steps its ceiling can differ from the exact one.
            sample_every = max(1, math.ceil(n_steps / max(1, n_samples - 1)))
            marks = range(sample_every, n_steps, sample_every)
            grids.append((sample_every * step, len(times), len(marks)))
            times += [start + k * step for k in marks] + [end]
        covs = np.empty((len(times), *sigma.shape))
        ends = [first + count for _, first, count in grids[:len(starts) - 1]]
        covs[[0, *ends]] = starts[:1 + known]
        filled = len(times) - (len(starts) == known)  # less an end whose solve failed
        try:
            propagator.sample_chains([(s, *g) for s, g in zip(starts, grids) if g[2]], covs)
        except np.linalg.LinAlgError as error:
            fault, filled = error, error.samples_written
    check_samples(times[1:filled], covs[1:filled])
    if fault is not None:
        raise fault
    return Trajectory(np.asarray(times), covs)


def check_samples(times: list, covs: np.ndarray):
    """Raise :class:`PhysicalityError` at the first sample that
    :func:`~mechmbqc.states.first_unphysical` rejects."""
    unphysical = first_unphysical(covs)
    if unphysical is not None:
        first, nu_min = unphysical
        raise PhysicalityError(times[first], nu_min)
