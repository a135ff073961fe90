import importlib
import os
import subprocess
import sys

import pytest

import rescool

EXPORTED = {
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
}

# The dense register oracle, the step machinery and the verification suite:
# internal to their modules, not exported.
INTERNAL = [
    ("hamiltonian", "assemble_hamiltonian"),
    ("hamiltonian", "split_parts"),
    ("evolution", "step_propagator"),
    ("evolution", "trotter_propagator"),
    ("cooling", "run_iteration"),
    ("cooling", "measure_first_ancilla"),
    ("sweep", "excitation_probability"),
    ("linalg", "align_global_phase"),
    ("evolution", "trotter_amplitudes"),
    ("acceptance", "run_checks"),
    ("acceptance", "render_results"),
]


def test_the_package_exports_exactly_the_simulator_names():
    assert len(rescool.__all__) == len(set(rescool.__all__)) == 32
    assert set(rescool.__all__) == EXPORTED
    for name in rescool.__all__:
        assert getattr(rescool, name) is not None


@pytest.mark.parametrize("module, name", INTERNAL)
def test_register_internals_stay_in_their_modules(module, name):
    assert not hasattr(rescool, name)
    assert callable(getattr(importlib.import_module(f"rescool.{module}"), name))


def test_importing_the_cli_leaves_the_verification_suite_unloaded():
    # a sweep or cool request needs nothing of the suite; verify imports it
    code = "import sys, rescool, rescool.cli; print('rescool.acceptance' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr
