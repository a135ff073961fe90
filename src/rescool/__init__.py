"""Ground-state cooling by resonant ancilla transitions.

A dense statevector simulator for the two-ancilla cooling loop: build the
register Hamiltonian, evolve for the half period of the resonant transfer,
measure the probe ancilla, and either purify toward the ground state or scan
the reference eigenvalue to locate the ground energy.
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
    measure_first_ancilla,
    render_report,
    run_algorithm,
    run_iteration,
    success_probability_bound,
)
from .evolution import (
    block_amplitudes,
    step_propagator,
    trotter_propagator,
)
from .hamiltonian import (
    AlgorithmConfig,
    SizeCap,
    SystemModel,
    assemble_hamiltonian,
    load_matrix_file,
    save_matrix_file,
    split_parts,
)
from .linalg import (
    DimensionMismatch,
    EigenSystem,
    NotHermitian,
    NotNormalized,
    align_global_phase,
    fidelity,
    hermitian_eig,
    propagator,
)
from .models import (
    BadDimension,
    SpinOperators,
    build_aklt,
    build_diagonal,
    from_registry,
    ground_truth,
    pair_swap,
    spin_operators,
)
from .sweep import (
    FlatCurve,
    SweepConfig,
    SweepResult,
    excitation_probability,
    render_csv,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmConfig",
    "BadDimension",
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
    "SpinOperators",
    "SweepConfig",
    "SweepResult",
    "SystemModel",
    "ZeroBranch",
    "align_global_phase",
    "assemble_hamiltonian",
    "block_amplitudes",
    "build_aklt",
    "build_diagonal",
    "compute_a0",
    "excitation_probability",
    "fidelity",
    "from_registry",
    "ground_overlap",
    "ground_truth",
    "hermitian_eig",
    "load_matrix_file",
    "measure_first_ancilla",
    "pair_swap",
    "propagator",
    "render_csv",
    "render_report",
    "render_results",
    "run_algorithm",
    "run_checks",
    "run_iteration",
    "save_matrix_file",
    "scan",
    "spin_operators",
    "split_parts",
    "step_propagator",
    "success_probability_bound",
    "trotter_propagator",
]
