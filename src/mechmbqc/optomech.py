"""Cavity-plus-resonators model for measurement by continuous monitoring.

A single cavity mode is QND-coupled to one mechanical resonator at a time
(coupling ``2 alpha_g * X_cavity * X_phi``), while its output is homodyned.
Stepping through the cluster nodes with the right quadrature angles emulates
the projective measurement sequence of a gate program; the result is scored
against the ideal projective run on the same cluster.

Mode layout everywhere: mechanical modes 0..N-1 first, cavity last.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import constants

from . import mbqc
from .states import (
    GaussianState,
    fidelity,
    homodyne_project,
    partial_trace,
    squeeze_momentum,
    vacuum,
)
from .dynamics import (
    BathSpec,
    CouplingSpec,
    EvolutionCoefficients,
    Trajectory,
    build_coefficients,
    homodyne_post_meas_cov,
    integrate,
    suggest_dt,
)


def thermal_occupancy(omega: float, temperature_k: float) -> float:
    """Bose occupation n = 1 / (exp(hbar omega / k_B T) - 1)."""
    if omega <= 0.0:
        raise ValueError("mode frequency must be positive")
    if temperature_k < 0.0:
        raise ValueError("temperature must be non-negative")
    if temperature_k == 0.0:
        return 0.0
    x = constants.hbar * omega / (constants.k * temperature_k)
    if x > 700.0:
        return 0.0
    return float(1.0 / np.expm1(x))


# Base mechanical frequency; resonator j runs at (j + 1) times this.
BASE_MECH_FREQUENCY = 2.0 * np.pi * 11e6


def default_mech_frequencies(n_modes: int) -> tuple:
    """Non-overlapping resonator frequencies 2 pi * j * 11 MHz, j = 1..N."""
    return tuple(BASE_MECH_FREQUENCY * (j + 1) for j in range(n_modes))


@dataclass(frozen=True)
class PhysicalParams:
    """Physical rates and settings of the monitored optomechanical system.

    All rates are angular frequencies in rad/s.

    Attributes:
        eta: homodyne detector efficiency in (0, 1].
        gamma: mechanical damping rate.
        kappa: monitored cavity decay rate.
        tau: unmonitored cavity loss rate.
        alpha_g: effective linearized drive-enhanced coupling.
        temperature_k: mechanical bath temperature in kelvin.
        r_post_meas_db: squeezing of the homodyned mode's post-measurement
            state, in dB.
        r_cluster_db: squeezing of the cluster constituents, in dB.
        mech_frequencies: resonator frequencies (rad/s), one per mode.
        reset_cavity: reinitialize the cavity to vacuum between monitoring
            steps (off by default; the dynamics simply carries over).
    """

    eta: float
    gamma: float
    kappa: float
    tau: float
    alpha_g: float
    temperature_k: float
    r_post_meas_db: float
    r_cluster_db: float
    mech_frequencies: tuple
    reset_cavity: bool = False

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        for name in ("gamma", "kappa", "tau", "alpha_g"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.temperature_k < 0.0:
            raise ValueError("temperature must be non-negative")
        freqs = tuple(float(w) for w in self.mech_frequencies)
        if not freqs or any(w <= 0 for w in freqs):
            raise ValueError("mechanical frequencies must be positive")
        object.__setattr__(self, "mech_frequencies", freqs)
        w_min = min(freqs)
        if self.kappa >= w_min or self.alpha_g >= w_min:
            warnings.warn(
                "kappa and alpha_g should sit well below the mechanical "
                "frequencies for the sideband-resolved model to hold",
                stacklevel=2,
            )

    @property
    def n_mech(self) -> int:
        return len(self.mech_frequencies)

    def occupancies(self) -> np.ndarray:
        return np.array(
            [thermal_occupancy(w, self.temperature_k) for w in self.mech_frequencies]
        )

    def with_mech_count(self, n_mech: int) -> "PhysicalParams":
        return replace(self, mech_frequencies=default_mech_frequencies(n_mech))


# The damping and decay rates are quoted as frequencies (gamma/2pi,
# kappa/2pi) and converted here; the coupling alpha_g is quoted directly as
# an angular rate.
def params_set1(n_mech: int = 5) -> PhysicalParams:
    """Experimentally motivated parameter set."""
    kappa = 2.0 * np.pi * 0.33e6
    return PhysicalParams(
        eta=0.99,
        gamma=2.0 * np.pi * 8.0,
        kappa=kappa,
        tau=0.01 * kappa,
        alpha_g=0.35e6,
        temperature_k=1e-3,
        r_post_meas_db=10.0,
        r_cluster_db=3.0,
        mech_frequencies=default_mech_frequencies(n_mech),
    )


def params_set2(n_mech: int = 5) -> PhysicalParams:
    """Close-to-ideal parameter set: lossless, cold, near-perfect detection."""
    return PhysicalParams(
        eta=1.0,
        gamma=0.0,
        kappa=2.0 * np.pi * 0.1e6,
        tau=0.0,
        alpha_g=0.35e6,
        temperature_k=0.0,
        r_post_meas_db=20.0,
        r_cluster_db=3.0,
        mech_frequencies=default_mech_frequencies(n_mech),
    )


def build_qnd_step(params: PhysicalParams, addressed: int, phi: float):
    """Coupling and bath specs while one resonator is being measured.

    The system Hamiltonian couples the cavity position to
    X_phi = X_k cos(phi) + P_k sin(phi) of the addressed resonator at
    strength 2 alpha_g. The monitored channel is the cavity decay kappa;
    the dissipative channels are the unmonitored cavity loss tau (vacuum)
    and one thermal channel per resonator at rate gamma.

    Returns:
        (CouplingSpec, BathSpec) for ``n_mech + 1`` system modes.
    """
    n_mech = params.n_mech
    if not 0 <= addressed < n_mech:
        raise ValueError(f"resonator index {addressed} out of range")
    n = n_mech + 1
    dim = 2 * n
    q_cav = 2 * n_mech

    h_system = np.zeros((dim, dim))
    coupling = 2.0 * params.alpha_g
    h_system[q_cav, 2 * addressed] = coupling * np.cos(phi)
    h_system[2 * addressed, q_cav] = coupling * np.cos(phi)
    h_system[q_cav, 2 * addressed + 1] = coupling * np.sin(phi)
    h_system[2 * addressed + 1, q_cav] = coupling * np.sin(phi)

    c_monitored = np.zeros((dim, 2))
    c_monitored[q_cav:, :] = np.sqrt(params.kappa) * np.eye(2)

    # Dissipative channels: cavity tau first, then one per resonator.
    c_dissipative = np.zeros((dim, 2 * (n_mech + 1)))
    c_dissipative[q_cav:, :2] = np.sqrt(params.tau) * np.eye(2)
    for j in range(n_mech):
        c_dissipative[2 * j : 2 * j + 2, 2 * (j + 1) : 2 * (j + 2)] = (
            np.sqrt(params.gamma) * np.eye(2)
        )

    occ = params.occupancies()
    bath_diag = np.concatenate([[0.5, 0.5], np.repeat(occ + 0.5, 2)])
    baths = BathSpec(
        sigma_monitored=0.5 * np.eye(2),
        sigma_dissipative=np.diag(bath_diag),
        sigma_post_meas=homodyne_post_meas_cov(params.r_post_meas_db),
        eta=params.eta,
    )
    return CouplingSpec(h_system, c_monitored, c_dissipative), baths


@dataclass(frozen=True)
class MonitoringSchedule:
    """Durations of the monitoring steps, in seconds."""

    durations: tuple

    def __post_init__(self):
        durations = tuple(float(t) for t in self.durations)
        if any(t <= 0 for t in durations):
            raise ValueError("monitoring durations must be positive")
        object.__setattr__(self, "durations", durations)

    @staticmethod
    def equal(t_mon: float, n_steps: int) -> "MonitoringSchedule":
        return MonitoringSchedule((float(t_mon),) * n_steps)

    @property
    def total(self) -> float:
        return float(sum(self.durations))


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one monitored protocol run."""

    times: np.ndarray
    fidelities: np.ndarray
    step_slices: tuple
    output_state: GaussianState
    reference_state: GaussianState
    schedule: MonitoringSchedule
    trajectories: tuple = field(default=(), repr=False)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])

    @property
    def max_fidelity(self) -> float:
        return float(np.max(self.fidelities))


def _protocol_layout(program: mbqc.GateProgram, params: PhysicalParams,
                     input_state: GaussianState = None,
                     input_state2: GaussianState = None):
    """Initial mechanical cluster, measured-node order and output modes."""
    if program.is_two_mode:
        n_mech = 4
        if input_state is None:
            input_state = squeeze_momentum(vacuum(1), 0, params.r_cluster_db)
        if input_state2 is None:
            input_state2 = squeeze_momentum(vacuum(1), 0, params.r_cluster_db)
        cluster = mbqc.dual_rail_with_inputs(input_state, input_state2,
                                             params.r_cluster_db)
        measured_nodes = (1, 2)
        output_modes = (0, 3)
        reference = mbqc.run_projective_cz(input_state, input_state2,
                                           params.r_cluster_db)
    else:
        n_mech = 5
        if input_state is None:
            input_state = squeeze_momentum(vacuum(1), 0, params.r_cluster_db)
        cluster = mbqc.linear_cluster_with_input(input_state, 4,
                                                 params.r_cluster_db)
        measured_nodes = (0, 1, 2, 3)
        output_modes = (4,)
        reference = mbqc.run_projective_mbqc(input_state, program,
                                             params.r_cluster_db)
    if params.n_mech != n_mech:
        params = params.with_mech_count(n_mech)
    return params, cluster, measured_nodes, output_modes, reference


def _attach_cavity(mech_cov: np.ndarray) -> np.ndarray:
    dim = mech_cov.shape[0] + 2
    cov = 0.5 * np.eye(dim)
    cov[: mech_cov.shape[0], : mech_cov.shape[0]] = mech_cov
    return cov


def _reset_cavity(cov: np.ndarray) -> np.ndarray:
    cov = cov.copy()
    cov[-2:, :] = 0.0
    cov[:, -2:] = 0.0
    cov[-2:, -2:] = 0.5 * np.eye(2)
    return cov


# Chunks per monitoring step. Each chunk lays its own sample grid from a
# freshly suggested dt, so early transients are sampled more densely than
# the rest of the step. The propagation itself is exact; the chunks only set
# the sample times, which the reported fidelity trace (and its maximum) is
# taken on.
CHUNKS_PER_STEP = 8


def _integrate_step(cov: np.ndarray, coeffs: EvolutionCoefficients, t_mon: float,
                    n_samples: int, t_offset: float,
                    n_chunks: int = CHUNKS_PER_STEP) -> Trajectory:
    """Propagate one monitoring step, sampled chunk by chunk."""
    chunk = t_mon / n_chunks
    per_chunk = max(2, int(np.ceil(n_samples / n_chunks)))
    times = [t_offset]
    covs = [np.array(cov)]
    t = t_offset
    for _ in range(n_chunks):
        dt = suggest_dt(coeffs, covs[-1], chunk)
        traj = integrate(covs[-1], coeffs, chunk, dt, n_samples=per_chunk,
                         t_offset=t)
        times.extend(traj.times[1:])
        covs.extend(traj.covs[1:])
        t = times[-1]
    return Trajectory(np.asarray(times), np.asarray(covs))


def run_monitoring_protocol(program: mbqc.GateProgram, params: PhysicalParams,
                            schedule: MonitoringSchedule,
                            input_state: GaussianState = None,
                            input_state2: GaussianState = None,
                            samples_per_step: int = 120,
                            keep_trajectories: bool = False) -> ProtocolResult:
    """Emulate a gate program by continuous monitoring and score it.

    Each step QND-couples the cavity to the next node of the cluster at the
    program's quadrature angle and propagates the monitored dynamics for the
    scheduled duration. The fidelity trace compares the reduced state of the
    output node(s) with the projective-measurement reference at every sample.

    Args:
        program: single-mode gate program (four steps) or CZ (two steps).
        params: physical parameters; the mechanical mode count is adjusted
            to the cluster size if needed.
        schedule: one duration per measurement step.
        input_state: optional single-mode input (default: momentum-squeezed
            vacuum at the cluster squeezing).
        input_state2: second input for the CZ program.
        samples_per_step: fidelity samples stored per step.
        keep_trajectories: also return the sampled full-system trajectories.

    Returns:
        ProtocolResult with the fidelity-vs-time trace and final states.
    """
    params, cluster, measured_nodes, output_modes, reference = _protocol_layout(
        program, params, input_state, input_state2
    )
    phases = program.measurement_phases()
    if len(schedule.durations) != len(phases):
        raise ValueError(
            f"schedule has {len(schedule.durations)} steps, "
            f"program needs {len(phases)}"
        )

    cov = _attach_cavity(cluster.cov)
    times = []
    fids = []
    slices = []
    trajectories = []
    t_start = 0.0
    cursor = 0
    for node, phi, t_mon in zip(measured_nodes, phases, schedule.durations):
        if params.reset_cavity and t_start > 0.0:
            cov = _reset_cavity(cov)
        coupling, baths = build_qnd_step(params, node, phi)
        coeffs = build_coefficients(coupling, baths)
        traj = _integrate_step(cov, coeffs, t_mon, samples_per_step, t_start)
        cov = traj.covs[-1]
        t_start += t_mon
        if keep_trajectories:
            trajectories.append(traj)
        for i, t in enumerate(traj.times):
            out = partial_trace(traj.state_at(i), output_modes)
            times.append(t)
            fids.append(fidelity(out, reference))
        slices.append(slice(cursor, len(times)))
        cursor = len(times)

    full = GaussianState(cov.shape[0] // 2, cov)
    output_state = partial_trace(full, output_modes)
    return ProtocolResult(
        times=np.asarray(times),
        fidelities=np.asarray(fids),
        step_slices=tuple(slices),
        output_state=output_state,
        reference_state=reference,
        schedule=schedule,
        trajectories=tuple(trajectories),
    )


def measured_node_decorrelation(trajectory: Trajectory, node: int,
                                phi: float = None) -> np.ndarray:
    """Cross-correlation norm between one node and everything else over time.

    With ``phi`` given, only the measured quadrature's row (X_phi) enters the
    norm. That is the part an effective measurement destroys, disconnecting
    the node from the cluster; the conjugate quadrature's correlations
    survive even an ideal projective measurement and are physically inert.
    Without ``phi`` the full 2-row block is used.
    """
    norms = np.empty(len(trajectory))
    rows = slice(2 * node, 2 * node + 2)
    keep = np.ones(trajectory.covs.shape[1], dtype=bool)
    keep[2 * node : 2 * node + 2] = False
    for i, cov in enumerate(trajectory.covs):
        block = cov[rows, :][:, keep]
        if phi is not None:
            block = np.array([np.cos(phi), np.sin(phi)]) @ block
        norms[i] = np.linalg.norm(block)
    return norms


def _would_be_output_fidelity(cov: np.ndarray, step_index: int,
                              measured_nodes, phases, n_mech: int,
                              output_modes, reference: GaussianState) -> float:
    """Fidelity of the output the protocol would deliver if monitoring
    stopped now.

    The cavity is dropped, the measurements of all later steps are completed
    as ideal projections, and the surviving output mode(s) are compared to
    the projective reference. The quality of the steps monitored so far
    (including the one in progress) is thereby priced into the result.
    """
    mech = partial_trace(GaussianState(cov.shape[0] // 2, cov), range(n_mech))
    remaining = list(range(mech.n_modes))
    state = mech
    for later in range(step_index + 1, len(measured_nodes)):
        idx = remaining.index(measured_nodes[later])
        # Propagated covariances carry accumulated rounding error, so the
        # physicality guard gets a looser tolerance than the constructor's.
        state = homodyne_project(state, idx, phases[later], atol=1e-5)
        remaining.pop(idx)
    outputs = [remaining.index(m) for m in output_modes]
    return fidelity(partial_trace(state, outputs), reference)


def _advance(cov: np.ndarray, coeffs: EvolutionCoefficients,
             duration: float) -> np.ndarray:
    """Covariance after one optimizer increment, physicality-checked.

    One grid step spans the whole increment, so every increment of a step
    reuses the flow that ``coeffs.propagator`` cached for that duration.
    """
    return integrate(cov, coeffs, duration, duration, n_samples=2).covs[-1]


def optimize_schedule(program: mbqc.GateProgram, params: PhysicalParams,
                      time_resolution: float, max_step_duration: float,
                      input_state: GaussianState = None,
                      input_state2: GaussianState = None,
                      decrease_tol: float = 2e-4):
    """Greedy per-step monitoring-time search that never lets fidelity drop.

    Each step is extended in increments of ``time_resolution`` while the
    would-be final output (later measurements completed projectively) keeps
    improving in fidelity against the projective reference; once it falls by
    more than ``decrease_tol`` below the best value seen, the step rolls
    back to its best point and the next step begins. Steps without an
    interior optimum run to ``max_step_duration``.

    Returns:
        (MonitoringSchedule, ProtocolResult) where the result's trace was
        produced by the optimized schedule.
    """
    if time_resolution <= 0 or max_step_duration <= 0:
        raise ValueError("time resolution and max duration must be positive")
    params, cluster, measured_nodes, output_modes, reference = _protocol_layout(
        program, params, input_state, input_state2
    )
    phases = program.measurement_phases()
    n_mech = params.n_mech

    cov = _attach_cavity(cluster.cov)
    durations = []
    for k, (node, phi) in enumerate(zip(measured_nodes, phases)):
        if params.reset_cavity and durations:
            cov = _reset_cavity(cov)
        coupling, baths = build_qnd_step(params, node, phi)
        coeffs = build_coefficients(coupling, baths)
        best_f = _would_be_output_fidelity(
            cov, k, measured_nodes, phases, n_mech, output_modes, reference
        )
        best_cov, best_t = cov, 0.0
        elapsed = 0.0
        while elapsed + time_resolution <= max_step_duration + 1e-15:
            cov = _advance(cov, coeffs, time_resolution)
            elapsed += time_resolution
            f_now = _would_be_output_fidelity(
                cov, k, measured_nodes, phases, n_mech, output_modes, reference
            )
            if f_now > best_f:
                best_f, best_cov, best_t = f_now, cov, elapsed
            elif f_now < best_f - decrease_tol:
                break
        if best_t == 0.0:
            # Monitoring never helped this step; keep it at the minimal
            # resolvable duration rather than emitting an empty step.
            best_t = time_resolution
            best_cov = _advance(best_cov, coeffs, time_resolution)
        cov = best_cov
        durations.append(best_t)

    schedule = MonitoringSchedule(tuple(durations))
    result = run_monitoring_protocol(
        program, params, schedule, input_state=input_state,
        input_state2=input_state2
    )
    return schedule, result


def gate_comparison(params: PhysicalParams, schedule: MonitoringSchedule,
                    programs=None) -> dict:
    """Run several gate programs on the same schedule and collect results.

    Defaults to the benchmark set {identity, Fourier, shear(1), shear(3),
    shear(5)}.
    """
    if programs is None:
        programs = (
            mbqc.identity_program(),
            mbqc.fourier_program(),
            mbqc.shear_program(1.0),
            mbqc.shear_program(3.0),
            mbqc.shear_program(5.0),
        )
    return {
        prog.name: run_monitoring_protocol(prog, params, schedule)
        for prog in programs
    }
