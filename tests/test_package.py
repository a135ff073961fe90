import importlib

import pytest

import rescool

EXPORTED = {
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
}

# The dense register's step machinery: internal to its modules, not exported.
INTERNAL = [
    ("hamiltonian", "assemble_hamiltonian"),
    ("hamiltonian", "split_parts"),
    ("evolution", "step_propagator"),
    ("evolution", "trotter_propagator"),
    ("cooling", "run_iteration"),
    ("cooling", "measure_first_ancilla"),
    ("sweep", "excitation_probability"),
    ("linalg", "align_global_phase"),
]


def test_the_package_exports_exactly_the_simulator_names():
    assert len(rescool.__all__) == len(set(rescool.__all__)) == 35
    assert set(rescool.__all__) == EXPORTED
    for name in rescool.__all__:
        assert getattr(rescool, name) is not None


@pytest.mark.parametrize("module, name", INTERNAL)
def test_register_internals_stay_in_their_modules(module, name):
    assert not hasattr(rescool, name)
    assert callable(getattr(importlib.import_module(f"rescool.{module}"), name))
