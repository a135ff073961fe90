"""Ground-state cooling by resonant ancilla transitions.

A statevector simulator for the two-ancilla cooling loop: evolve |00>|phi>
for half a resonant period, measure the probe, and purify toward the ground
state or scan the reference eigenvalue for the ground energy.  The dense 4N
register that computes a step stays inside its modules.
"""
from .acceptance import CheckResult, render_results, run_checks
from .cooling import (
    CoolingReport,
    DivergentTail,
    IterationRecord,
    RestartCapExceeded,
    ZeroBranch,
    compute_a0,
    ground_overlap,
    render_report,
    run_algorithm,
    success_probability_bound,
)
from .evolution import block_amplitudes
from .hamiltonian import (
    AlgorithmConfig,
    SizeCap,
    SystemModel,
    load_matrix_file,
    save_matrix_file,
)
from .linalg import (
    DimensionMismatch,
    EigenSystem,
    NotHermitian,
    NotNormalized,
    fidelity,
    hermitian_eig,
    propagator,
)
from .models import (
    build_aklt,
    build_diagonal,
    from_registry,
    ground_truth,
)
from .sweep import (
    FlatCurve,
    SweepConfig,
    SweepResult,
    render_csv,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "CheckResult",
    "CoolingReport",
    "DimensionMismatch",
    "DivergentTail",
    "EigenSystem",
    "FlatCurve",
    "IterationRecord",
    "NotHermitian",
    "NotNormalized",
    "RestartCapExceeded",
    "SizeCap",
    "SweepConfig",
    "SweepResult",
    "SystemModel",
    "ZeroBranch",
    "block_amplitudes",
    "build_aklt",
    "build_diagonal",
    "compute_a0",
    "fidelity",
    "from_registry",
    "ground_overlap",
    "ground_truth",
    "hermitian_eig",
    "load_matrix_file",
    "propagator",
    "render_csv",
    "render_report",
    "render_results",
    "run_algorithm",
    "run_checks",
    "save_matrix_file",
    "scan",
    "success_probability_bound",
]
