"""Cavity-plus-resonators model for measurement by continuous monitoring.

A single cavity mode is QND-coupled to the momentum of one resonator at a
time, in the measurement frame where that is the node's X_phi, while its
output is homodyned. Stepping through the nodes emulates a gate program's
projective measurements, scored against the ideal run on the same cluster.

Mode layout everywhere: mechanical modes 0..N-1 first, cavity last.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import mbqc
from .states import (GaussianState, build_cluster, condition_on_homodyne, fidelity_to,
                     is_index, is_integer, real_number, shown, thermal, vacuum)
from .dynamics import (
    EvolutionCoefficients,
    PhysicalityError,
    Trajectory,
    add_system_hamiltonian,
    build_lyapunov,
    build_riccati,
    check_samples,
    homodyne_post_meas_cov,
    prepare_flows,
    prepare_steps,
    sample_cap,
    sample_step,
)


# Exact SI values of h / 2 pi (J s) and of the Boltzmann constant (J / K).
HBAR, K_B = 6.62607015e-34 / (2.0 * np.pi), 1.380649e-23


def thermal_occupancy(omega: float, temperature_k: float) -> float:
    """Bose occupation n = 1 / (exp(hbar omega / k_B T) - 1). A frequency that
    is not finite and > 0, or a temperature that is not finite and >= 0, is a
    ``ValueError``."""
    if not 0.0 < omega < np.inf:
        raise ValueError(f"mode frequency must be positive and finite, got {omega!r}")
    if not 0.0 <= temperature_k < np.inf:
        raise ValueError(f"temperature must be non-negative and finite, got {temperature_k!r}")
    if temperature_k == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature_k)
    if x > 700.0:
        return 0.0
    return float(1.0 / np.expm1(x))


# Base mechanical frequency; resonator j runs at (j + 1) times this.
BASE_MECH_FREQUENCY = 2.0 * np.pi * 11e6


@dataclass(frozen=True)
class PhysicalParams:
    """Physical rates and settings of the monitored optomechanical system.

    All rates are angular frequencies in rad/s. A program's pattern, not the
    parameters, sets the resonator count: one per cluster node.

    Attributes:
        eta: homodyne detector efficiency in (0, 1].
        gamma: mechanical damping rate.
        kappa: monitored cavity decay rate.
        tau: unmonitored cavity loss rate.
        alpha_g: effective linearized drive-enhanced coupling.
        temperature_k: mechanical bath temperature in kelvin.
        r_post_meas_db: non-negative squeezing of the homodyned mode's
            post-measurement state, in dB.
        r_cluster_db: non-negative squeezing of the cluster nodes, in dB.
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
    reset_cavity: bool = False

    def __post_init__(self):
        # Plain floats and a bool, whatever number types the caller gave, so
        # that equal parameters hash equal (the run cache keys on them).
        for name in ("eta", "gamma", "kappa", "tau", "alpha_g", "temperature_k",
                     "r_post_meas_db", "r_cluster_db"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "reset_cavity", bool(self.reset_cavity))
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        for name in ("gamma", "kappa", "tau", "alpha_g", "temperature_k", "r_post_meas_db",
                     "r_cluster_db"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.kappa >= BASE_MECH_FREQUENCY or self.alpha_g >= BASE_MECH_FREQUENCY:
            warnings.warn(
                "kappa and alpha_g should sit well below the mechanical "
                "frequencies for the sideband-resolved model to hold",
                stacklevel=3,
            )

    def occupancies(self, n_resonators: int) -> np.ndarray:
        """Bath occupancies of resonators 0 .. n_resonators - 1."""
        return np.array([thermal_occupancy(BASE_MECH_FREQUENCY * (j + 1), self.temperature_k)
                         for j in range(n_resonators)])

    @classmethod
    def from_values(cls, values: dict) -> "PhysicalParams":
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


def params_set1() -> PhysicalParams:
    """Experimentally motivated parameter set (``PRESETS["set1"]``)."""
    return PhysicalParams.from_values(PRESETS["set1"])


def params_set2() -> PhysicalParams:
    """Close-to-ideal parameter set (``PRESETS["set2"]``)."""
    return PhysicalParams.from_values(PRESETS["set2"])


def qnd_hamiltonian(params: PhysicalParams, n_resonators: int, addressed: int) -> np.ndarray:
    """The system Hamiltonian matrix while resonator ``addressed`` is measured: the cavity
    position couples to the resonator's momentum at strength 2 alpha_g. An ``addressed``
    that is not an index (:func:`is_index`) of the resonators is a ``ValueError``."""
    if not is_index(addressed, n_resonators):
        raise ValueError(f"resonator {shown(addressed)} is not an integer resonator "
                         f"of {n_resonators}")
    h_system = np.zeros((2 * n_resonators + 2,) * 2)
    h_system[2 * n_resonators, 2 * addressed + 1] = 2.0 * params.alpha_g
    h_system[2 * addressed + 1, 2 * n_resonators] = 2.0 * params.alpha_g
    return h_system


# Entries of each run cache below, least recently used evicted first. The
# benchmark's protocol stream cycles through 4 coefficient keys and 4
# monitored channels (set1 and set2 on the five-node chain and on CZ's four
# nodes) and, between two runs of one program, through at most 5 clusters
# (identity, Fourier, CZ and two fresh shears); gate_comparison's default set
# is 5 programs on one chain. 8 holds all three, and a key never repeated
# costs only its entry. Threads may share the caches: two that miss one key at
# once both build it, with equal results.
RUN_CACHE_SIZE = 8


def qnd_coefficients(params: PhysicalParams, n_resonators: int) -> EvolutionCoefficients:
    """The coefficients every QND step on ``n_resonators`` resonators shares: the cavity
    decays at kappa into a homodyne of efficiency eta and loses photons at tau, and each
    resonator has a thermal bath at gamma. A step adds its :func:`qnd_hamiltonian`.

    The baths (gamma, temperature, tau) are laid out on each call; the monitored channel
    comes from its run cache (:func:`_monitored_channel`)."""
    dim = 2 * n_resonators + 2
    q_cav = 2 * n_resonators

    # Dissipative channels: cavity tau first (a vacuum bath), then one
    # thermal bath per resonator.
    c_dissipative = np.zeros((dim, dim))
    c_dissipative[q_cav:, :2] = np.sqrt(params.tau) * np.eye(2)
    c_dissipative[:q_cav, 2:] = np.sqrt(params.gamma) * np.eye(q_cav)

    occupancies = np.append(0.0, params.occupancies(n_resonators))
    a_lyap, d_lyap = build_lyapunov(c_dissipative, thermal(n_resonators + 1, occupancies).cov)
    a_ricc, d_ricc, backaction = _monitored_channel(params.kappa, params.eta,
                                                    params.r_post_meas_db, n_resonators)
    return EvolutionCoefficients(a_lyap + a_ricc, d_lyap + d_ricc, backaction)


@functools.lru_cache(maxsize=RUN_CACHE_SIZE)
def _monitored_channel(kappa: float, eta: float, r_post_meas_db: float,
                       n_resonators: int) -> tuple:
    """Read-only ``(A, D, B)`` of the cavity's monitored decay at ``kappa`` into a
    homodyne of efficiency ``eta`` (:func:`build_riccati`), on ``n_resonators``
    resonators plus the cavity. It reads no bath, so a sweep over gamma or the
    temperature builds it once."""
    c_monitored = np.zeros((2 * n_resonators + 2, 2))
    c_monitored[2 * n_resonators:, :] = np.sqrt(kappa) * np.eye(2)
    parts = build_riccati(c_monitored, vacuum(1).cov, homodyne_post_meas_cov(r_post_meas_db),
                          eta)
    for part in parts:
        part.flags.writeable = False
    return parts


@dataclass(frozen=True)
class MonitoringSchedule:
    """Durations of the monitoring steps, in seconds: a sequence (not a
    string) of :func:`~mechmbqc.states.real_number` values, each positive and
    finite, or a ``ValueError``."""

    durations: tuple

    def __post_init__(self):
        if isinstance(self.durations, (str, bytes)) or not np.iterable(self.durations):
            raise ValueError("durations must be a sequence of numbers, "
                             f"got {shown(self.durations)}")
        durations = tuple(real_number(t, "a monitoring duration") for t in self.durations)
        if not all(0 < t < np.inf for t in durations):
            raise ValueError("monitoring durations must be positive and finite")
        object.__setattr__(self, "durations", durations)

    @staticmethod
    def equal(t_mon: float, n_steps: int) -> "MonitoringSchedule":
        """``n_steps`` steps of ``t_mon`` each. ``t_mon`` is a
        :func:`real_number` and ``n_steps`` a non-negative :func:`is_integer`
        (0 for a pattern that measures no node), or a ``ValueError``."""
        if not (is_integer(n_steps) and n_steps >= 0):
            raise ValueError(f"n_steps must be a non-negative integer, got {shown(n_steps)}")
        return MonitoringSchedule((real_number(t_mon, "t_mon"),) * n_steps)

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
        params: physical parameters, as the caller gave them.
        pattern: the program's measurement pattern, one resonator per node.
        cluster: the cluster the monitoring starts from, in the measurement frame.
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
        rows, cols = self.pattern.output_index
        return cov[..., rows, cols]

    def completed_fidelities(self, covs: np.ndarray, step: int) -> np.ndarray:
        """Fidelity of the output the protocol would deliver if monitoring
        stopped at each full-system covariance of a stack, during step
        ``step``.

        The cavity is dropped and the measurements of all later steps are
        completed as ideal projections of momentum in the measurement frame,
        so the quality of the steps monitored so far (including the one in
        progress) is priced into the result.
        """
        n = 2 * self.pattern.graph.n_nodes
        outputs = condition_on_homodyne(covs[:, :n, :n], self.pattern.measured[step + 1:],
                                        self.pattern.outputs)
        return fidelity_to(outputs, self.reference)


@functools.lru_cache(maxsize=RUN_CACHE_SIZE)
def _cluster_and_reference(pattern: mbqc.MeasurementPattern, r_cluster_db: float):
    """A pattern's cluster, in its measurement frame, and its projective output.

    The monitored cluster carries the default input, a momentum-squeezed
    vacuum at the cluster squeezing, on every input node, so it is the
    plain cluster of the program's graph. Both states are immutable, so
    runs of one program share them (and the reference's purity spectrum).
    """
    cluster = build_cluster(pattern.graph, r_cluster_db)
    frame = pattern.frame
    return GaussianState(frame @ cluster.cov @ frame.T), pattern.complete(cluster)


class _CoefficientKey:
    """A run cache key of parameters: equal and hashed by the fields that
    :func:`qnd_coefficients` and :func:`qnd_hamiltonian` read, so parameters that
    differ only in the cluster squeezing or the cavity reset share an entry."""

    __slots__ = ("params", "fields")

    def __init__(self, params: PhysicalParams):
        self.params = params
        self.fields = (params.eta, params.gamma, params.kappa, params.tau, params.alpha_g,
                       params.temperature_k, params.r_post_meas_db)

    def __eq__(self, other) -> bool:
        return isinstance(other, _CoefficientKey) and self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)


@functools.lru_cache(maxsize=RUN_CACHE_SIZE)
def _step_coefficients(key: _CoefficientKey, n_nodes: int, measured: tuple) -> tuple:
    """The coefficients of each step that measures ``measured`` on ``n_nodes`` resonators,
    for the parameters of ``key``.

    The steps share one build of the channels and differ only in the drift's
    Hamiltonian term. The coefficients are immutable, so runs on the same
    coefficient fields and measured nodes share them and all they derive once: the
    propagators, with the flow of their last interval length, and the grid rule's norms.
    """
    params = key.params
    shared = qnd_coefficients(params, n_nodes)
    return tuple(
        EvolutionCoefficients(
            add_system_hamiltonian(shared.drift, qnd_hamiltonian(params, n_nodes, node)),
            shared.diffusion, shared.backaction)
        for node in measured
    )


def _prepare(program: mbqc.GateProgram, params: PhysicalParams) -> _Protocol:
    """Cluster, projective reference and per-step coefficients of a program,
    each from its run cache."""
    pattern = program.pattern
    steps = _step_coefficients(_CoefficientKey(params), pattern.graph.n_nodes,
                               pattern.measured)
    cluster, reference = _cluster_and_reference(pattern, params.r_cluster_db)
    return _Protocol(params, pattern, cluster, reference, steps)


def _monitor(protocols: list, schedule: MonitoringSchedule,
             samples_per_step: int, keep_trajectories: bool) -> list:
    """Run a batch of prepared protocols of one pattern on a schedule, in
    lockstep, and return their results. The steps' chunk flows of every run
    are built together first, by :func:`~mechmbqc.dynamics.prepare_steps`;
    each step then samples every run in one
    :func:`~mechmbqc.dynamics.sample_step`, on lone matrices for a batch of
    one, and the samples of the runs of each reference are scored in one
    :func:`fidelity_to` call. If a step fails, the steps before it are scored
    first: an unphysical output among them is the earlier fault.

    Each result has the bits of its run alone. A batch of several runs may
    fail where its runs alone would not, or with another error:
    :func:`run_monitoring_batch` then redoes them one at a time."""
    if len(schedule.durations) != len(protocols[0].steps):
        raise ValueError(
            f"schedule has {len(schedule.durations)} steps, "
            f"program needs {len(protocols[0].steps)}"
        )
    covs = [protocol.initial_cov() for protocol in protocols]
    if keep_trajectories:
        lab = np.eye(len(covs[0]))  # rotates a full-system covariance back to the lab frame
        lab[:-2, :-2] = protocols[0].pattern.frame
    times = [[] for _ in protocols]  # each run's sample times, step by step
    blocks = [[] for _ in protocols]  # its output blocks
    trajectories = [[] for _ in protocols]  # its kept trajectories
    t_start = 0.0

    prepare_steps([(coeffs, t_mon) for protocol in protocols
                   for coeffs, t_mon in zip(protocol.steps, schedule.durations)])
    try:
        for k, t_mon in enumerate(schedule.durations):
            if len(protocols) == 1:  # a lone step, as a run alone samples it
                trajs = [sample_step(covs[0], protocols[0].steps[k], t_mon, samples_per_step,
                                     t_start)]
            else:
                trajs = sample_step(covs, [protocol.steps[k] for protocol in protocols], t_mon,
                                    samples_per_step, t_start)
            t_start += t_mon
            for r, (protocol, traj) in enumerate(zip(protocols, trajs)):
                covs[r] = traj.covs[-1]
                times[r].append(traj.times)
                blocks[r].append(protocol.output_block(traj.covs))
                if keep_trajectories:
                    trajectories[r].append(Trajectory(traj.times, lab.T @ traj.covs @ lab))
                if k + 1 < len(schedule.durations):
                    covs[r] = protocol.handover(covs[r])
    except (np.linalg.LinAlgError, PhysicalityError):
        _score(protocols, blocks)
        raise

    results = []
    for protocol, cov, run_times, fidelities, run_trajectories in zip(
            protocols, covs, times, _score(protocols, blocks), trajectories):
        bounds = list(accumulate(map(len, run_times), initial=0))
        results.append(ProtocolResult(
            times=np.concatenate(run_times) if run_times else np.empty(0),
            fidelities=fidelities,
            step_slices=tuple(map(slice, bounds, bounds[1:])),
            output_state=GaussianState(protocol.output_block(cov)),
            reference_state=protocol.reference,
            schedule=schedule,
            trajectories=tuple(run_trajectories),
        ))
    return results


def _score(protocols: list, blocks: list) -> list:
    """The fidelities of each run's output blocks ``blocks[r]``, a list of
    stacks, against its reference: one :func:`fidelity_to` call per distinct
    reference."""
    runs_of = {}
    for r, protocol in enumerate(protocols):
        runs_of.setdefault(id(protocol.reference), []).append(r)
    scores = [np.empty(0)] * len(protocols)
    for runs in runs_of.values():
        stack = [block for r in runs for block in blocks[r]]
        if stack:
            fidelities = fidelity_to(np.concatenate(stack), protocols[runs[0]].reference)
            for r in runs:
                n = sum(map(len, blocks[r]))
                scores[r], fidelities = fidelities[:n], fidelities[n:]
    return scores


# Samples per step of a protocol run, unless the caller asks otherwise.
SAMPLES_PER_STEP = 120


def run_monitoring_protocol(program: mbqc.GateProgram, params: PhysicalParams,
                            schedule: MonitoringSchedule,
                            samples_per_step: int = SAMPLES_PER_STEP,
                            keep_trajectories: bool = False) -> ProtocolResult:
    """Emulate a gate program by continuous monitoring and score it.

    Each step QND-couples the cavity to the momentum of the next measured
    node, in the pattern's measurement frame, and propagates the monitored
    dynamics for the scheduled duration. The cluster carries the default
    input (momentum-squeezed vacuum at the cluster squeezing). The fidelity
    trace compares the reduced state of the output node(s) with the
    projective-measurement reference at every sample. This is
    :func:`run_monitoring_batch` of one run.

    Args:
        program: any gate program; its pattern sets the steps.
        params: physical parameters; the pattern sets the resonator count,
            one per cluster node.
        schedule: one duration per measurement step.
        samples_per_step: the ``n_samples`` of each step's
            :func:`~mechmbqc.dynamics.sample_step`, whose count rule sets
            the fidelity samples stored per step.
        keep_trajectories: also return the full-system trajectories, in the lab frame.

    Returns:
        ProtocolResult with the fidelity-vs-time trace and final states.

    Raises:
        ValueError: if ``samples_per_step`` is not an integer (an ``int`` or
            a numpy integer, not a bool) of at least 2.
    """
    return run_monitoring_batch(program, [params], schedule, samples_per_step,
                                keep_trajectories)[0]


def run_monitoring_batch(program: mbqc.GateProgram, params: list,
                         schedule: MonitoringSchedule,
                         samples_per_step: int = SAMPLES_PER_STEP,
                         keep_trajectories: bool = False) -> list:
    """:func:`run_monitoring_protocol` at each of a sequence of ``params``,
    the runs stepped in lockstep: their results, in order, each with the
    bits of its run alone.

    A batch of several runs runs under ``np.errstate(divide="raise",
    over="raise", invalid="raise")``, the floating-point events that numpy
    warns on by default. If it raises anything, its runs are redone one at a
    time in order, so every error and warning is the one that the first
    failing run raises alone, after the runs before it.
    """
    samples_per_step = sample_cap(samples_per_step, "samples_per_step")
    if len(params) > 1:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return _monitor([_prepare(program, p) for p in params], schedule,
                                samples_per_step, keep_trajectories)
        except Exception:  # redone alone below, which raises as the runs alone do
            pass
    return [_monitor([_prepare(program, p)], schedule, samples_per_step, keep_trajectories)[0]
            for p in params]


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
    if not is_index(node, covs.shape[1] // 2):
        raise ValueError(f"node {shown(node)} is not a mode of the "
                         f"{covs.shape[1] // 2}-mode trajectory")
    keep = np.ones(covs.shape[1], dtype=bool)
    keep[2 * node : 2 * node + 2] = False
    blocks = covs[:, 2 * node : 2 * node + 2, keep]
    if phi is not None:
        blocks = np.array([np.cos(phi), np.sin(phi)]) @ blocks
    return np.linalg.norm(blocks.reshape(len(covs), -1), axis=1)


# A step ends once its would-be fidelity falls this far below its best.
DECREASE_TOL = 2e-4

# Increments the search propagates, guards and scores in one pass. A block's
# fixed cost (guard, completion and fidelity calls) is about 12-15 times an
# increment's, and the benchmark's optimizer steps scan a median of 21
# increments (quartiles 16 and 35, none under 8). A fixed block of 20-24
# then minimizes blocks x fixed cost + increments computed; 24 covers the
# median step in one block. Any size gives the same results.
SEARCH_BLOCK = 24


def _score_increments(protocol: _Protocol, step: int, cov: np.ndarray,
                      times: list, time_resolution: float, with_start: bool = False):
    """Covariances and completed fidelities after each of ``len(times)``
    increments from ``cov``, guarded as samples at the step times ``times``.
    With ``with_start``, ``cov`` itself leads both stacks, scored in the same
    completion call."""
    covs = np.empty((with_start + len(times), *cov.shape))
    if with_start:
        covs[0] = cov
    protocol.steps[step].propagator.sample(cov, time_resolution, covs[with_start:])
    check_samples(times, covs[with_start:])
    return covs, protocol.completed_fidelities(covs, step)


def _step_increments(protocol: _Protocol, step: int, cov: np.ndarray,
                     time_resolution: float, max_step_duration: float):
    """Yield ``(elapsed, covariance, completed fidelity)`` of the step's start
    ``cov``, at elapsed time 0.0, and then after every increment of the step,
    computed ``SEARCH_BLOCK`` increments at a time.

    The start is scored as entry 0 of the first block's one completion call.
    The first increment is taken even past ``max_step_duration``. A block
    that fails anywhere is redone one entry at a time, the first block's
    start before its increments, so an unphysical start raises before any
    increment's error, and an increment's error surfaces at the increment
    that causes it, and only if the caller reads that far.
    """
    elapsed, with_start = 0.0, True
    while True:
        times = []
        while len(times) < SEARCH_BLOCK and (
                not elapsed or elapsed + time_resolution <= max_step_duration + 1e-15):
            elapsed += time_resolution
            times.append(elapsed)
        if not times:
            return
        try:
            covs, fids = _score_increments(protocol, step, cov, times, time_resolution,
                                           with_start)
        except (np.linalg.LinAlgError, ValueError):
            if with_start:
                yield 0.0, cov, protocol.completed_fidelities(cov[None], step)[0]
            for t in times:
                (cov,), (f_now,) = _score_increments(protocol, step, cov, [t],
                                                     time_resolution)
                yield t, cov, f_now
        else:
            yield from zip([0.0] * with_start + times, covs, fids)
            cov = covs[-1]
        with_start = False


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
    failing increment's elapsed time within its step. The step's start, the
    initial best, is scored in its first block's completion call, so the
    search makes one completion call per block. The increment flows of all
    steps are built together before the search, by
    :func:`~mechmbqc.dynamics.prepare_flows`.

    Returns:
        (MonitoringSchedule, ProtocolResult) where the result's trace was
        produced by the optimized schedule.
    """
    for name, value in (("time_resolution", time_resolution),
                        ("max_step_duration", max_step_duration)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    protocol = _prepare(program, params)
    prepare_flows((coeffs, time_resolution) for coeffs in protocol.steps)

    cov = protocol.initial_cov()
    durations = []
    for k in range(len(protocol.steps)):
        if k:
            cov = protocol.handover(cov)
        increments = _step_increments(protocol, k, cov, time_resolution, max_step_duration)
        best_t, best_cov, best_f = next(increments)
        first_cov = None
        for t, cov_t, f_now in increments:
            if first_cov is None:
                first_cov = cov_t
            if f_now > best_f:
                best_f, best_cov, best_t = f_now, cov_t, t
            elif f_now < best_f - DECREASE_TOL:
                break
        if best_t == 0.0:
            # Monitoring never helped this step; keep it at the minimal
            # resolvable duration rather than emitting an empty step.
            best_t, best_cov = time_resolution, first_cov
        cov = best_cov
        durations.append(best_t)

    schedule = MonitoringSchedule(tuple(durations))
    return schedule, _monitor([protocol], schedule, SAMPLES_PER_STEP, False)[0]


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
