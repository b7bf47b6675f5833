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
from .states import GaussianState, build_cluster, fidelity_to, quadratures, thermal, vacuum
from .dynamics import (
    BathSpec,
    CouplingSpec,
    EvolutionCoefficients,
    PhysicalityError,
    Trajectory,
    _check_samples,
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
        for name in ("gamma", "kappa", "tau", "alpha_g", "temperature_k"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("r_post_meas_db", "r_cluster_db"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        freqs = tuple(float(w) for w in self.mech_frequencies)
        if not freqs or not all(0 < w < np.inf for w in freqs):
            raise ValueError("mech_frequencies must be positive and finite")
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

    @classmethod
    def from_values(cls, values: dict, n_mech: int) -> "PhysicalParams":
        """Parameters from a mapping in preset units (the keys of PRESETS).

        Rates quoted as ordinary frequencies (``_hz``) are multiplied by
        2 pi; the coupling ``alpha_g_rad_per_s`` is already an angular rate.
        """
        kappa = 2.0 * np.pi * float(values["kappa_hz"])
        return cls(
            eta=float(values["eta"]),
            gamma=2.0 * np.pi * float(values["gamma_hz"]),
            kappa=kappa,
            tau=float(values["tau_over_kappa"]) * kappa,
            alpha_g=float(values["alpha_g_rad_per_s"]),
            temperature_k=float(values["temperature_k"]),
            r_post_meas_db=float(values["r_post_meas_db"]),
            r_cluster_db=float(values["r_cluster_db"]),
            mech_frequencies=default_mech_frequencies(n_mech),
        )


# The two named parameter sets, in preset units (see PhysicalParams.from_values).
PRESETS = {
    # Experimentally motivated.
    "set1": {
        "eta": 0.99,
        "gamma_hz": 8.0,
        "kappa_hz": 0.33e6,
        "tau_over_kappa": 0.01,
        "alpha_g_rad_per_s": 0.35e6,
        "temperature_k": 1e-3,
        "r_post_meas_db": 10.0,
        "r_cluster_db": 3.0,
    },
    # Close to ideal: lossless, cold, near-perfect detection.
    "set2": {
        "eta": 1.0,
        "gamma_hz": 0.0,
        "kappa_hz": 0.1e6,
        "tau_over_kappa": 0.0,
        "alpha_g_rad_per_s": 0.35e6,
        "temperature_k": 0.0,
        "r_post_meas_db": 20.0,
        "r_cluster_db": 3.0,
    },
}


def params_set1(n_mech: int = 5) -> PhysicalParams:
    """Experimentally motivated parameter set (``PRESETS["set1"]``)."""
    return PhysicalParams.from_values(PRESETS["set1"], n_mech)


def params_set2(n_mech: int = 5) -> PhysicalParams:
    """Close-to-ideal parameter set (``PRESETS["set2"]``)."""
    return PhysicalParams.from_values(PRESETS["set2"], n_mech)


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

    # Dissipative channels: cavity tau first (a vacuum bath), then one
    # thermal bath per resonator.
    c_dissipative = np.zeros((dim, 2 * (n_mech + 1)))
    c_dissipative[q_cav:, :2] = np.sqrt(params.tau) * np.eye(2)
    c_dissipative[:q_cav, 2:] = np.sqrt(params.gamma) * np.eye(q_cav)

    baths = BathSpec(
        sigma_monitored=vacuum(1).cov,
        sigma_dissipative=thermal(n, np.append(0.0, params.occupancies())).cov,
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
        if not all(0 < t < np.inf for t in durations):
            raise ValueError("monitoring durations must be positive and finite")
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


@dataclass(frozen=True)
class _Protocol:
    """A gate program made ready to monitor, shared by every driver.

    Attributes:
        params: physical parameters at the pattern's mechanical mode count.
        pattern: the program's measurement pattern.
        cluster: the mechanical cluster state the monitoring starts from.
        reference: the ideal projective output of the same cluster.
        steps: evolution coefficients of each measurement step.
    """

    params: PhysicalParams
    pattern: mbqc.MeasurementPattern
    cluster: GaussianState
    reference: GaussianState
    steps: tuple

    def initial_cov(self) -> np.ndarray:
        """The cluster with the cavity, in vacuum, appended as the last mode."""
        n = self.cluster.cov.shape[0]
        cov = 0.5 * np.eye(n + 2)
        cov[:n, :n] = self.cluster.cov
        return cov

    def handover(self, cov: np.ndarray) -> np.ndarray:
        """The covariance one step leaves to the next.

        With ``params.reset_cavity`` the cavity returns to vacuum, without
        correlations; otherwise the dynamics simply carries over.
        """
        if not self.params.reset_cavity:
            return cov
        cov = cov.copy()
        cov[-2:, :] = 0.0
        cov[:, -2:] = 0.0
        cov[-2:, -2:] = 0.5 * np.eye(2)
        return cov

    def output_block(self, cov: np.ndarray) -> np.ndarray:
        """The output nodes' block of a full-system covariance, or of each
        covariance in a stack."""
        idx = quadratures(self.pattern.outputs)
        return cov[..., idx, :][..., idx]

    def output_state(self, cov: np.ndarray) -> GaussianState:
        """Reduced state of the output nodes in a full-system covariance."""
        return GaussianState(len(self.pattern.outputs), self.output_block(cov))

    def completed_fidelities(self, covs: np.ndarray, step: int) -> np.ndarray:
        """Fidelity of the output the protocol would deliver if monitoring
        stopped at each full-system covariance of a stack, during step
        ``step``.

        The cavity is dropped and the measurements of all later steps are
        completed as ideal projections, so the quality of the steps
        monitored so far (including the one in progress) is priced into the
        result.
        """
        n = 2 * self.params.n_mech
        outputs = self.pattern.after(step + 1).complete_covs(covs[:, :n, :n])
        return fidelity_to(outputs, self.reference)


def _prepare(program: mbqc.GateProgram, params: PhysicalParams) -> _Protocol:
    """Cluster, projective reference and per-step coefficients of a program.

    The monitored cluster carries the default input, a momentum-squeezed
    vacuum at the cluster squeezing, on every input node, so it is the
    plain cluster of the program's graph.
    """
    pattern = program.pattern
    if params.n_mech != pattern.graph.n_nodes:
        params = params.with_mech_count(pattern.graph.n_nodes)
    cluster = build_cluster(pattern.graph, params.r_cluster_db)
    steps = tuple(
        build_coefficients(*build_qnd_step(params, node, phi))
        for node, phi in zip(pattern.measured, pattern.phases)
    )
    return _Protocol(params, pattern, cluster, pattern.complete(cluster), steps)


# Chunks per monitoring step. Each chunk lays its own sample grid from a
# freshly suggested dt, so early transients are sampled more densely than
# the rest of the step. The propagation itself is exact; the chunks only set
# the sample times, which the reported fidelity trace (and its maximum) is
# taken on.
CHUNKS_PER_STEP = 8


def _integrate_step(cov: np.ndarray, coeffs: EvolutionCoefficients, t_mon: float,
                    n_samples: int, t_offset: float) -> Trajectory:
    """Propagate one monitoring step, sampled chunk by chunk."""
    chunk = t_mon / CHUNKS_PER_STEP
    per_chunk = max(2, int(np.ceil(n_samples / CHUNKS_PER_STEP)))
    times = [t_offset]
    covs = [np.array(cov)]
    t = t_offset
    for _ in range(CHUNKS_PER_STEP):
        dt = suggest_dt(coeffs, covs[-1], chunk)
        traj = integrate(covs[-1], coeffs, chunk, dt, n_samples=per_chunk,
                         t_offset=t)
        times.extend(traj.times[1:])
        covs.extend(traj.covs[1:])
        t = times[-1]
    return Trajectory(np.asarray(times), np.asarray(covs))


def _monitor(protocol: _Protocol, schedule: MonitoringSchedule,
             samples_per_step: int, keep_trajectories: bool) -> ProtocolResult:
    """Run a prepared protocol on a schedule and score every sample."""
    if len(schedule.durations) != len(protocol.steps):
        raise ValueError(
            f"schedule has {len(schedule.durations)} steps, "
            f"program needs {len(protocol.steps)}"
        )
    cov = protocol.initial_cov()
    times = []
    fids = []
    slices = []
    trajectories = []
    t_start = 0.0
    for k, (coeffs, t_mon) in enumerate(zip(protocol.steps, schedule.durations)):
        if k:
            cov = protocol.handover(cov)
        traj = _integrate_step(cov, coeffs, t_mon, samples_per_step, t_start)
        cov = traj.covs[-1]
        t_start += t_mon
        if keep_trajectories:
            trajectories.append(traj)
        start = len(times)
        times.extend(traj.times)
        fids.extend(fidelity_to(protocol.output_block(traj.covs), protocol.reference))
        slices.append(slice(start, len(times)))

    return ProtocolResult(
        times=np.asarray(times),
        fidelities=np.asarray(fids),
        step_slices=tuple(slices),
        output_state=protocol.output_state(cov),
        reference_state=protocol.reference,
        schedule=schedule,
        trajectories=tuple(trajectories),
    )


# Samples per step of a protocol run, unless the caller asks otherwise.
SAMPLES_PER_STEP = 120


def run_monitoring_protocol(program: mbqc.GateProgram, params: PhysicalParams,
                            schedule: MonitoringSchedule,
                            samples_per_step: int = SAMPLES_PER_STEP,
                            keep_trajectories: bool = False) -> ProtocolResult:
    """Emulate a gate program by continuous monitoring and score it.

    Each step QND-couples the cavity to the next measured node of the
    program's pattern at its quadrature angle and propagates the monitored
    dynamics for the scheduled duration. The cluster carries the default
    input (momentum-squeezed vacuum at the cluster squeezing). The fidelity
    trace compares the reduced state of the output node(s) with the
    projective-measurement reference at every sample.

    Args:
        program: any gate program; its pattern sets the steps.
        params: physical parameters; the mechanical mode count is adjusted
            to the cluster size if needed.
        schedule: one duration per measurement step.
        samples_per_step: fidelity samples stored per step.
        keep_trajectories: also return the sampled full-system trajectories.

    Returns:
        ProtocolResult with the fidelity-vs-time trace and final states.
    """
    return _monitor(_prepare(program, params), schedule, samples_per_step,
                    keep_trajectories)


def measured_node_decorrelation(trajectory: Trajectory, node: int,
                                phi: float = None) -> np.ndarray:
    """Cross-correlation norm between one node and everything else over time.

    With ``phi`` given, only the measured quadrature's row (X_phi) enters the
    norm. That is the part an effective measurement destroys, disconnecting
    the node from the cluster; the conjugate quadrature's correlations
    survive even an ideal projective measurement and are physically inert.
    Without ``phi`` the full 2-row block is used.
    """
    covs = trajectory.covs
    keep = np.ones(covs.shape[1], dtype=bool)
    keep[2 * node : 2 * node + 2] = False
    blocks = covs[:, 2 * node : 2 * node + 2, keep]
    if phi is not None:
        blocks = np.array([np.cos(phi), np.sin(phi)]) @ blocks
    return np.linalg.norm(blocks.reshape(len(covs), -1), axis=1)


# A step ends once its would-be fidelity falls this far below its best.
DECREASE_TOL = 2e-4

# Increments the search propagates, guards and scores in one pass.
SEARCH_BLOCK = 8


def _score_increments(protocol: _Protocol, step: int, cov: np.ndarray,
                      times: list, time_resolution: float):
    """Covariances and completed fidelities after each of ``len(times)``
    increments from ``cov``, guarded as samples at the step times ``times``."""
    advance = protocol.steps[step].propagator.advance
    covs = []
    for _ in times:
        cov = advance(cov, time_resolution)
        covs.append(cov)
    covs = np.asarray(covs)
    _check_samples(times, covs)
    return covs, protocol.completed_fidelities(covs, step)


def _step_increments(protocol: _Protocol, step: int, cov: np.ndarray,
                     time_resolution: float, max_step_duration: float):
    """Yield ``(elapsed, covariance, completed fidelity)`` after every
    increment of one step, computed ``SEARCH_BLOCK`` increments at a time.

    A block that fails anywhere is redone one increment at a time, so the
    error surfaces at the increment that causes it, and only if the caller
    reads that far.
    """
    elapsed = 0.0
    while True:
        times = []
        while (len(times) < SEARCH_BLOCK
               and elapsed + time_resolution <= max_step_duration + 1e-15):
            elapsed += time_resolution
            times.append(elapsed)
        if not times:
            return
        try:
            covs, fids = _score_increments(protocol, step, cov, times, time_resolution)
        except (np.linalg.LinAlgError, PhysicalityError, ValueError):
            for t in times:
                (cov,), (f_now,) = _score_increments(protocol, step, cov, [t],
                                                     time_resolution)
                yield t, cov, f_now
            continue
        yield from zip(times, covs, fids)
        cov = covs[-1]


def optimize_schedule(program: mbqc.GateProgram, params: PhysicalParams,
                      time_resolution: float, max_step_duration: float):
    """Greedy per-step monitoring-time search on the completed fidelity.

    Each step is extended in increments of ``time_resolution`` while the
    would-be final output (later measurements completed projectively) keeps
    improving in fidelity against the projective reference; once it falls by
    more than ``DECREASE_TOL`` below the best value seen, the step rolls
    back to its best point and the next step begins. Steps without an
    interior optimum run to ``max_step_duration``. A step that never
    improves keeps the minimal duration ``time_resolution``.

    The search never accepts a drop of this completed fidelity. The returned
    result's ``fidelities`` are the raw output-node fidelities of the
    replayed schedule, a different metric that may still dip within and
    between steps.

    Increments are propagated, guarded and scored in blocks of
    ``SEARCH_BLOCK``, then scanned in order; the result is the same as one
    increment at a time, and a :class:`PhysicalityError` reports the
    failing increment's elapsed time within its step.

    Returns:
        (MonitoringSchedule, ProtocolResult) where the result's trace was
        produced by the optimized schedule.
    """
    for name, value in (("time_resolution", time_resolution),
                        ("max_step_duration", max_step_duration)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    protocol = _prepare(program, params)

    cov = protocol.initial_cov()
    durations = []
    for k, coeffs in enumerate(protocol.steps):
        if k:
            cov = protocol.handover(cov)
        best_f = protocol.completed_fidelities(cov[None], k)[0]
        best_cov, best_t = cov, 0.0
        first_cov = None
        for t, cov_t, f_now in _step_increments(protocol, k, cov, time_resolution,
                                                max_step_duration):
            if first_cov is None:
                first_cov = cov_t
            if f_now > best_f:
                best_f, best_cov, best_t = f_now, cov_t, t
            elif f_now < best_f - DECREASE_TOL:
                break
        if best_t == 0.0:
            # Monitoring never helped this step; keep it at the minimal
            # resolvable duration rather than emitting an empty step.
            best_t = time_resolution
            best_cov = first_cov
            if best_cov is None:
                best_cov = coeffs.propagator.advance(cov, time_resolution)
                _check_samples([time_resolution], best_cov[None])
        cov = best_cov
        durations.append(best_t)

    schedule = MonitoringSchedule(tuple(durations))
    return schedule, _monitor(protocol, schedule, SAMPLES_PER_STEP, False)


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
