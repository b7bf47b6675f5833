"""Gate programs for measurement-driven Gaussian computation.

A single-mode Gaussian gate is encoded as four shear parameters
``(lambda1, ..., lambda4)``; running the associated quadrature measurements
``p + lambda_j q`` on the first four nodes of a five-node linear cluster
teleports the input (node 1) to the output node with the gate applied.
The two-mode CZ gate uses the dual-rail form of a four-node cluster.

:meth:`GateProgram.pattern` is the one place that spells out which cluster a
program runs on and which nodes it measures, at which angles; the projective
runners and the monitored protocol all follow that pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .states import (
    GaussianState,
    GraphSpec,
    build_cluster,
    homodyne_project_covs,
    is_symplectic,
    symmetrize,
)

FOURIER = np.array([[0.0, -1.0], [1.0, 0.0]])


def shear_matrix(lam: float) -> np.ndarray:
    """Symplectic matrix of the shearing gate, [[1, 0], [lam, 1]]."""
    return np.array([[1.0, 0.0], [float(lam), 1.0]])


def lambdas_to_symplectic(lambdas) -> np.ndarray:
    """Closed-form 2x2 symplectic matrix of a four-measurement program.

    This is the matrix implemented by the teleportation sequence
    F S(l4) F S(l3) F S(l2) F S(l1); its determinant is always 1.
    """
    l1, l2, l3, l4 = (float(x) for x in lambdas)
    return np.array(
        [
            [l4 * l3 * (l2 * l1 - 1.0) - l1 * (l2 + l4) + 1.0, l4 * l3 * l2 - l4 - l2],
            [-l3 * l2 * l1 + l3 + l1, -l3 * l2 + 1.0],
        ]
    )


def compose_oracle(lambdas) -> np.ndarray:
    """The same gate built the long way, as the product f s(l4) f s(l3) f s(l2) f s(l1)."""
    l1, l2, l3, l4 = lambdas
    out = np.eye(2)
    for lam in (l1, l2, l3, l4):
        out = FOURIER @ shear_matrix(lam) @ out
    return out


def lambda_to_phase(lam: float) -> float:
    """Quadrature angle measuring p + lam q, i.e. phi = arctan(1/lam).

    lam = 0 is the pure momentum measurement phi = pi/2.
    """
    if lam == 0:
        return np.pi / 2.0
    return float(np.arctan(1.0 / lam))


def gate_to_lambdas(matrix) -> tuple:
    """Invert ``lambdas_to_symplectic``: find a program for a 2x2 symplectic target.

    The program is not unique; this picks the branch with lambda1 = 0 when
    the lower-left entry is non-zero and falls back to the remaining cases
    otherwise. Raises ValueError for non-symplectic input.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2) or abs(np.linalg.det(m) - 1.0) > 1e-9:
        raise ValueError("target must be a 2x2 matrix with unit determinant")
    m11, m12 = m[0]
    m21, m22 = m[1]
    if abs(m21) > 1e-12:
        l1 = 0.0
        l3 = m21
        l2 = (1.0 - m22) / m21
        l4 = (1.0 - m11) / m21
    elif abs(m22 - 1.0) > 1e-12:
        # m21 = 0 forces m11 = 1/m22; lambda1 = 1 keeps the solution finite.
        l1 = 1.0
        l3 = -m22
        l2 = (m22 - 1.0) / m22
        l4 = -(m12 + l2) / m22
    else:
        # q-shear conjugate [[1, b], [0, 1]].
        l1 = l2 = l3 = 0.0
        l4 = -m12
    lambdas = (l1, l2, l3, l4)
    if np.max(np.abs(lambdas_to_symplectic(lambdas) - m)) > 1e-9:
        raise ValueError("gate decomposition failed to reproduce the target")
    return lambdas


@dataclass(frozen=True)
class MeasurementPattern:
    """Where a gate program runs: its cluster graph and node roles.

    Attributes:
        graph: the cluster graph.
        inputs: nodes that carry the program's input modes.
        measured: nodes measured, in order, one per step.
        phases: quadrature angle of each measurement.
        outputs: nodes that survive and hold the result, in output order.
    """

    graph: GraphSpec
    inputs: tuple
    measured: tuple
    phases: tuple
    outputs: tuple

    def complete_covs(self, covs: np.ndarray) -> np.ndarray:
        """Finish the pattern by ideal homodyne measurements, for each
        covariance in a stack ``(N, 2n, 2n)`` with one mode per graph node.

        Every measured node is projected in turn, all matrices at once, any
        node that is neither measured nor an output is traced out, and the
        ``(N, 2m, 2m)`` stack of output-node covariances is returned in
        output order. Each matrix must be symmetric and stay physical
        through every projection (see :func:`homodyne_project_covs`).
        """
        covs = symmetrize(covs)
        remaining = list(range(self.graph.n_nodes))
        for node, phi in zip(self.measured, self.phases):
            idx = remaining.index(node)
            covs = homodyne_project_covs(covs, idx, phi)
            remaining.pop(idx)
        keep = np.array([[2 * remaining.index(m), 2 * remaining.index(m) + 1]
                         for m in self.outputs]).ravel()
        return covs[:, keep][:, :, keep]

    def complete(self, state: GaussianState) -> GaussianState:
        """The single-state form of :meth:`complete_covs`: the reduced
        output state of ``state`` once the pattern is finished."""
        return GaussianState(len(self.outputs), self.complete_covs(state.cov[None])[0])

    def after(self, steps: int) -> "MeasurementPattern":
        """What is left to do once the first ``steps`` measurements are done.

        Their nodes stay in the graph; completion traces them out.
        """
        return replace(self, measured=self.measured[steps:], phases=self.phases[steps:])


@dataclass(frozen=True)
class GateProgram:
    """A measurement program: either four shear parameters or the two-mode CZ.

    ``lambdas`` is a length-4 tuple for single-mode programs and None for the
    CZ program, whose two steps are both pure momentum measurements.
    """

    lambdas: tuple | None
    name: str = ""

    def __post_init__(self):
        if self.lambdas is not None:
            if len(self.lambdas) != 4:
                raise ValueError("single-mode programs use exactly four measurements")
            object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))

    @property
    def is_two_mode(self) -> bool:
        return self.lambdas is None

    def measurement_phases(self) -> tuple:
        """Quadrature angles, one per measurement step."""
        if self.is_two_mode:
            return (np.pi / 2.0, np.pi / 2.0)
        return tuple(lambda_to_phase(lam) for lam in self.lambdas)

    def pattern(self) -> MeasurementPattern:
        """The cluster and measurement sequence that run this program.

        Single-mode programs teleport node 0 along a five-node chain by
        measuring nodes 0..3; the output is node 4. The CZ program uses the
        four-node dual rail: inputs on the middle nodes 1 and 2, both
        measured in p, outputs on the end nodes (0, 3).
        """
        phases = self.measurement_phases()
        if self.is_two_mode:
            return MeasurementPattern(GraphSpec.linear(4), (1, 2), (1, 2), phases, (0, 3))
        return MeasurementPattern(GraphSpec.linear(5), (0,), (0, 1, 2, 3), phases, (4,))

    def target_matrix(self) -> np.ndarray:
        if self.is_two_mode:
            raise ValueError("the CZ program has no single-mode target matrix")
        return lambdas_to_symplectic(self.lambdas)


def identity_program() -> GateProgram:
    return GateProgram((0.0, 0.0, 0.0, 0.0), name="identity")


def fourier_program() -> GateProgram:
    return GateProgram((1.0, 1.0, 1.0, 0.0), name="fourier")


def shear_program(lam: float) -> GateProgram:
    return GateProgram((float(lam), 0.0, 0.0, 0.0), name=f"shear({lam:g})")


def cz_program() -> GateProgram:
    return GateProgram(None, name="cz")


def program_from_matrix(matrix) -> GateProgram:
    """Measurement program for an explicit 2x2 symplectic target."""
    return GateProgram(gate_to_lambdas(matrix), name="custom")


def named_program(name: str) -> GateProgram:
    """Look up a program by name: identity | fourier | shear:<lam> | cz."""
    key = name.strip().lower()
    if key in ("identity", "i"):
        return identity_program()
    if key in ("fourier", "f"):
        return fourier_program()
    if key.startswith("shear"):
        _, _, arg = key.partition(":")
        return shear_program(float(arg) if arg else 1.0)
    if key == "cz":
        return cz_program()
    raise ValueError(f"unknown gate program '{name}'")


def expected_output(matrix: np.ndarray, input_cov: np.ndarray) -> np.ndarray:
    """Ideal infinite-squeezing reference M sigma M^T."""
    matrix = np.asarray(matrix, dtype=float)
    if not is_symplectic(matrix):
        raise ValueError("reference matrix must be symplectic")
    return matrix @ np.asarray(input_cov, dtype=float) @ matrix.T


def run_projective_mbqc(input_mode: GaussianState, program: GateProgram,
                        r_cluster_db: float) -> GaussianState:
    """Apply a single-mode program by ideal homodyne measurements.

    Builds the program's five-node linear cluster with ``input_mode`` on
    node 1, measures nodes 1..4 in the bases p + lambda_j q and returns the
    surviving output node. In the infinite-squeezing limit the output
    covariance approaches ``M sigma_in M^T`` with
    M = ``lambdas_to_symplectic(program.lambdas)``.
    """
    if program.is_two_mode:
        raise ValueError("use run_projective_cz for the two-mode program")
    pattern = program.pattern()
    cluster = build_cluster(pattern.graph, r_cluster_db,
                            inputs={pattern.inputs[0]: input_mode})
    return pattern.complete(cluster)


def run_projective_cz(input1: GaussianState, input2: GaussianState,
                      r_cluster_db: float,
                      rung_weight: float = 1.0) -> GaussianState:
    """Apply the CZ gate via two momentum measurements on the dual rail.

    The inputs sit on the middle nodes of the CZ program's four-node chain,
    whose middle (rung) edge gets weight ``rung_weight``; a zero weight
    leaves two independent teleportation wires. Returns the two-mode state
    of the end nodes, ordered (rail of input1, rail of input2). In the
    infinite-squeezing limit this equals ``S (sigma1 + sigma2) S^T`` with
    ``S = (f + f) S_CZ`` -- the CZ dressed by the single-teleportation
    Fourier by-product on each rail.
    """
    pattern = cz_program().pattern()
    rung = GraphSpec(4, ((0, 1), (1, 2, rung_weight), (2, 3)))
    cluster = build_cluster(rung, r_cluster_db,
                            inputs=dict(zip(pattern.inputs, (input1, input2))))
    return pattern.complete(cluster)


def cz_reference_matrix(weight: float = 1.0) -> np.ndarray:
    """The 4x4 symplectic the dual-rail protocol implements, (f + f) S_CZ."""
    s_cz = np.eye(4)
    s_cz[1, 2] = weight
    s_cz[3, 0] = weight
    f2 = np.zeros((4, 4))
    f2[:2, :2] = FOURIER
    f2[2:, 2:] = FOURIER
    return f2 @ s_cz
