"""Ground-state cooling by resonant ancilla transitions.

A statevector simulator for the two-ancilla cooling loop: evolve |00>|phi>
for half a resonant period, measure the probe, and purify toward the ground
state or scan the reference eigenvalue for the ground energy.  A step is
computed from the system's spectrum, one 2x2 block per level; the dense 4N
register survives only as the oracle of the verification suite, one numpy
eigh of the whole register with no block code, which rescool.acceptance
holds and `rescool verify` runs.
"""
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
from .hamiltonian import AlgorithmConfig
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
    SizeCap,
    SystemModel,
    build_aklt,
    build_diagonal,
    from_registry,
    ground_truth,
    load_matrix_file,
    save_matrix_file,
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
    "run_algorithm",
    "save_matrix_file",
    "scan",
    "success_probability_bound",
]
