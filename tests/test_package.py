import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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
    ("cooling", "measure_first_ancilla"),
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


def test_the_names_the_benchmark_reads_stay_bound():
    # the benchmark harness drives and traces the program through these names
    from rescool import cli, hamiltonian, linalg

    assert rescool.propagator is linalg.propagator
    assert callable(hamiltonian.split_parts)
    assert len(rescool.success_probability_bound(0.5, 1.0, 0.05, 2)) == 2
    for name in (
        "from_registry",
        "ground_truth",
        "ground_overlap",
        "hermitian_eig",
        "compute_a0",
        "run_algorithm",
        "AlgorithmConfig",
        "RestartCapExceeded",
    ):
        assert callable(getattr(rescool, name)), name
    assert callable(cli.main)


def test_importing_the_cli_leaves_the_verification_suite_unloaded():
    # a sweep or cool request needs nothing of the suite; verify imports it
    code = "import sys, rescool, rescool.cli; print('rescool.acceptance' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; attribute chains count through their root."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(rescool.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__.py is exempt: its imports are the package's re-exports
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_unused_import_check_sees_annotations_and_attribute_roots():
    used = "from typing import Callable\nimport numpy as np\ndef f() -> Callable:\n    np.linalg\n"
    assert unused_imports("from __future__ import annotations\n" + used) == []
    assert unused_imports("from typing import Callable\nimport os.path\n") == ["Callable", "os"]
