"""Gaussian MBQC on mechanical cluster states, by projective measurement or
by continuous monitoring of a QND-coupled cavity."""

from .states import (
    GaussianState,
    GraphSpec,
    UnphysicalStateError,
    apply_cz,
    apply_symplectic,
    build_cluster,
    fidelity,
    fidelity_to,
    nullifier_variances,
    squeeze_momentum,
    symplectic_eigenvalues,
    symplectic_form,
    thermal,
    vacuum,
)
from .mbqc import (
    GateProgram,
    MeasurementPattern,
    cz_program,
    expected_output,
    fourier_program,
    gate_to_lambdas,
    identity_program,
    lambda_to_phase,
    lambdas_to_symplectic,
    named_program,
    program_from_matrix,
    run_projective,
    shear_program,
    single_mode_program,
)
from .dynamics import (
    EvolutionCoefficients,
    PhysicalityError,
    Trajectory,
    add_system_hamiltonian,
    build_lyapunov,
    build_riccati,
    integrate,
)
from .optomech import (
    MonitoringSchedule,
    PhysicalParams,
    ProtocolResult,
    gate_comparison,
    measured_node_decorrelation,
    optimize_schedule,
    params_set1,
    params_set2,
    run_monitoring_protocol,
    thermal_occupancy,
)

__version__ = "0.1.0"
