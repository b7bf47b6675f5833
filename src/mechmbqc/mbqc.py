"""Gate programs for measurement-driven Gaussian computation.

A :class:`GateProgram` is a record of two things: the measurement pattern
that runs it (cluster graph, input, measured and output nodes, quadrature
angles) and the symplectic matrix that pattern implements on its inputs in
the infinite-squeezing limit. The projective runner, the monitored protocol,
the optimizer and the CLI all read these two fields; none of them asks what
kind of program it holds; besides them the record has only a name.

Two constructors hold the cluster layouts. :func:`single_mode_program` turns
four shear parameters ``(lambda1, ..., lambda4)`` into the measurements
``p + lambda_j q`` on the first four nodes of a five-node chain, which
teleport the input (node 0) to node 4 with the gate applied; the target is
the closed form :func:`lambdas_to_symplectic` (the tests check it against
the product of the four teleportations).
:func:`cz_program` is the two-mode CZ on the four-node dual rail.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import block_diag

from .states import (
    GaussianState,
    GraphSpec,
    build_cluster,
    condition_on_homodyne,
    cz_matrix,
    is_symplectic,
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
    otherwise. Raises ValueError for non-finite or non-symplectic input.
    """
    m = np.asarray(matrix, dtype=float)
    if (m.shape != (2, 2) or not np.isfinite(m).all()
            or abs(np.linalg.det(m) - 1.0) > 1e-9):
        raise ValueError("target must be a finite 2x2 matrix with unit determinant")
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

        One Gaussian conditioning on all measured quadratures (see
        :func:`condition_on_homodyne`) gives the ``(N, 2m, 2m)`` stack of
        output-node covariances in output order; every other node is traced
        out. Each matrix must be symmetric and, if anything is left to
        measure, physical.
        """
        return condition_on_homodyne(covs, self.measured, self.phases, self.outputs)

    def complete(self, state: GaussianState) -> GaussianState:
        """The single-state form of :meth:`complete_covs`: the reduced
        output state of ``state`` once the pattern is finished."""
        return GaussianState(len(self.outputs), self.complete_covs(state.cov[None])[0])

    def after(self, steps: int) -> "MeasurementPattern":
        """What is left to do once the first ``steps`` measurements are done.

        Their nodes stay in the graph; completion traces them out.
        """
        return replace(self, measured=self.measured[steps:], phases=self.phases[steps:])


# Compared and hashed by identity: the target is an array.
@dataclass(frozen=True, eq=False)
class GateProgram:
    """A measurement program: the pattern that runs it and the gate it runs.

    Attributes:
        pattern: cluster graph, node roles and measurement angles.
        target: the 2m x 2m symplectic matrix the pattern implements on its
            m input modes in the infinite-squeezing limit; read-only.
        name: label used in results and reports.
    """

    pattern: MeasurementPattern
    target: np.ndarray = field(repr=False)
    name: str

    def __post_init__(self):
        target = np.array(self.target, dtype=float)
        n_modes = len(self.pattern.inputs)
        if len(self.pattern.outputs) != n_modes or target.shape != (2 * n_modes,) * 2:
            raise ValueError("target must map the pattern's inputs to its outputs")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)

    def measurement_phases(self) -> tuple:
        """``pattern.phases``. The package reads that field; this wrapper
        stays only for the benchmark harness, which still calls it."""
        return self.pattern.phases


def single_mode_program(lambdas, name: str) -> GateProgram:
    """A single-mode gate from four shear parameters.

    The input on node 0 of a five-node chain is teleported to node 4 by
    measuring nodes 0..3 in the bases p + lambda_j q; the gate is
    :func:`lambdas_to_symplectic` of the parameters, which must be finite.
    """
    lambdas = tuple(float(x) for x in lambdas)
    if len(lambdas) != 4:
        raise ValueError("single-mode programs use exactly four measurements")
    if not np.isfinite(lambdas).all():
        raise ValueError(f"shear parameters must be finite, got {lambdas}")
    phases = tuple(lambda_to_phase(lam) for lam in lambdas)
    pattern = MeasurementPattern(GraphSpec.linear(5), (0,), (0, 1, 2, 3), phases, (4,))
    return GateProgram(pattern, lambdas_to_symplectic(lambdas), name)


def cz_program() -> GateProgram:
    """The two-mode CZ on the four-node dual rail.

    The inputs sit on the middle nodes 1 and 2, both measured in p; the
    outputs are the end nodes, ordered (rail of input 1, rail of input 2).
    The target is ``(f + f) S_CZ``: the CZ dressed by the
    single-teleportation Fourier by-product on each rail.
    """
    pattern = MeasurementPattern(GraphSpec.linear(4), (1, 2), (1, 2),
                                 (np.pi / 2.0, np.pi / 2.0), (0, 3))
    target = block_diag(FOURIER, FOURIER) @ cz_matrix(2, 0, 1)
    return GateProgram(pattern, target, "cz")


def identity_program() -> GateProgram:
    return single_mode_program((0.0, 0.0, 0.0, 0.0), "identity")


def fourier_program() -> GateProgram:
    return single_mode_program((1.0, 1.0, 1.0, 0.0), "fourier")


def shear_program(lam: float) -> GateProgram:
    return single_mode_program((float(lam), 0.0, 0.0, 0.0), f"shear({lam:g})")


def program_from_matrix(matrix) -> GateProgram:
    """Measurement program for an explicit 2x2 symplectic target."""
    return single_mode_program(gate_to_lambdas(matrix), "custom")


def named_program(name: str) -> GateProgram:
    """Look up a program by name: identity | i | fourier | f | cz | shear |
    shear:<lam>, in any case and with surrounding whitespace.

    A bare ``shear`` is shear(1); ``<lam>`` must be a finite number.
    """
    key = name.strip().lower()
    if key in ("identity", "i"):
        return identity_program()
    if key in ("fourier", "f"):
        return fourier_program()
    if key == "cz":
        return cz_program()
    if key == "shear":
        return shear_program(1.0)
    head, sep, arg = key.partition(":")
    if head == "shear" and sep:
        try:
            lam = float(arg)
        except ValueError:
            lam = np.nan
        if np.isfinite(lam):
            return shear_program(lam)
    raise ValueError(f"unknown gate program '{name}'")


def expected_output(matrix: np.ndarray, input_cov: np.ndarray) -> np.ndarray:
    """Ideal infinite-squeezing reference M sigma M^T."""
    matrix = np.asarray(matrix, dtype=float)
    if not is_symplectic(matrix):
        raise ValueError("reference matrix must be symplectic")
    return matrix @ np.asarray(input_cov, dtype=float) @ matrix.T


def run_projective(program: GateProgram, inputs, r_cluster_db: float) -> GaussianState:
    """Apply a program by ideal homodyne measurements.

    Builds the program's cluster with the single-mode states ``inputs`` on
    its input nodes, in order, completes the pattern and returns the state
    of the output nodes, in output order. In the infinite-squeezing limit
    its covariance approaches ``target (sigma_1 + ... + sigma_m) target^T``.
    """
    pattern = program.pattern
    if len(inputs) != len(pattern.inputs):
        raise ValueError(f"program takes {len(pattern.inputs)} input mode(s), "
                         f"got {len(inputs)}")
    cluster = build_cluster(pattern.graph, r_cluster_db,
                            inputs=dict(zip(pattern.inputs, inputs)))
    return pattern.complete(cluster)
