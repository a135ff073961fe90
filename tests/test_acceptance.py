"""Acceptance gate: every shipped verification check at its stated tolerance.

Each parametrized case prints one PASS/FAIL line with the measured numbers.
The one- and two-iteration checks compare the dense run with the closed-form
block states; the test below shows that comparison is not a tautology by
feeding it states that are near, but not equal to, the block states.  The
ground-truth check compares ground_truth with the valence-bond state; the
last tests feed it a mutated construction or a faulty ground_truth and
expect it to fail.
"""
import re
from dataclasses import replace

import numpy as np
import pytest

from rescool import acceptance
from rescool.acceptance import (
    CHECKS,
    _block_state,
    _chain_context,
    _state_deviation,
    check_aklt_ground_truth,
    check_monotone_convergence,
    render_results,
    run_checks,
)
from rescool.cooling import run_algorithm
from rescool.models import ground_truth


def pattern_vector(entries):
    vec = np.zeros(16, dtype=complex)
    for idx, val in entries.items():
        vec[idx] = val
    return vec


# Printed one- and two-iteration patterns the checks used to target.  No
# coupling or detuning reaches them: the one-step fidelity is fixed at
# 1/(1 + (a0 c)^2) = 0.966073, below the band [0.98, 1] they came with.
FORMER_PATTERNS = {
    1: pattern_vector({3: 0.321, 5: 0.321, 10: 0.321, 6: -0.573, 9: -0.573, 12: 0.186}),
    2: pattern_vector({3: 0.288, 5: 0.288, 10: 0.288, 6: -0.577, 9: -0.577, 12: 0.292}),
}


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_criterion(name, check):
    passed, detail = check(1.0)
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_run_checks_reports_every_criterion():
    results = run_checks(only="fidelity")
    assert [r.name for r in results] == ["initial-fidelity"]
    text = render_results(results)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS initial-fidelity:")
    assert lines[1] == "1/1 checks passed"


def test_a_check_that_raises_is_reported_as_failed(monkeypatch):
    def crashed(scale):
        raise RuntimeError("no spectrum")

    monkeypatch.setattr(acceptance, "CHECKS", [("crashed", crashed), *CHECKS[1:2]])
    results = run_checks()
    assert [(r.name, r.passed) for r in results] == [("crashed", False), ("initial-fidelity", True)]
    assert results[0].detail == "raised RuntimeError: no spectrum"
    assert render_results(results).splitlines()[-1] == "1/2 checks passed"


def test_monotone_convergence_fails_on_a_fidelity_that_drops(monkeypatch):
    # each run's first record is made to fall 1e-3 below the initial fidelity
    def dropping(model, config, phi0):
        report = run_algorithm(model, config, phi0)
        first = replace(report.records[0], fidelity_to_target=report.initial_fidelity - 1e-3)
        return replace(report, records=[first, *report.records[1:]])

    monkeypatch.setattr(acceptance, "run_algorithm", dropping)
    passed, detail = check_monotone_convergence(1.0)
    assert not passed and detail.startswith("monotone=False, ")


def test_tolerance_scale_must_be_positive():
    with pytest.raises(ValueError):
        run_checks(tolerance_scale=0.0)


@pytest.mark.parametrize(
    "m,pattern_dev,dropped_dev,dropped_to_pattern",
    [(1, 0.1429, 0.1413, 0.0218), (2, 0.01215, 0.01162, 0.00079)],
)
def test_block_state_comparison_rejects_near_misses(
    m, pattern_dev, dropped_dev, dropped_to_pattern
):
    # Both near misses sit at least 1e6 times above the checks' 1e-8 tolerance.
    target, _ = _block_state(m)
    pattern = FORMER_PATTERNS[m]
    # The detuned amplitudes with their phase dropped, Re(c_j1 / c_11), come
    # within 0.022 and 0.0008 of the printed patterns: likely how they were made.
    _, _, _, vecs, d, c_j1 = _chain_context()
    dropped = vecs @ (d * np.real(c_j1 / c_j1[0]) ** m)
    dropped /= np.linalg.norm(dropped)
    assert _state_deviation(target, pattern) == pytest.approx(pattern_dev, abs=1e-4)
    assert _state_deviation(target, dropped) == pytest.approx(dropped_dev, abs=1e-4)
    assert _state_deviation(pattern, dropped) == pytest.approx(dropped_to_pattern, abs=1e-4)


def valence_bond_reference(n_bulk, unsymmetrized_pair=None, triplet_bond=None):
    # the construction written out again, with a switch for each mutation:
    # bond b sits on qubits (2b, 2b+1), spin-1 pair k on (2k-1, 2k)
    n_qubits = 2 * n_bulk + 2
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    triplet = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    psi = np.ones(1)
    for b in range(n_bulk + 1):
        psi = np.kron(psi, triplet if b == triplet_bond else singlet)
    for k in range(1, n_bulk + 1):
        if k != unsymmetrized_pair:
            psi = psi + psi.reshape([2] * n_qubits).swapaxes(2 * k - 1, 2 * k).reshape(-1)
    return psi / np.linalg.norm(psi)


def worst_deviation(detail):
    return float(re.search(r"worst deviation (\S+)", detail).group(1))


def test_ground_truth_check_passes_with_the_test_construction(monkeypatch):
    monkeypatch.setattr(acceptance, "valence_bond_state", valence_bond_reference)
    passed, detail = check_aklt_ground_truth(1.0)
    assert passed, detail
    assert worst_deviation(detail) <= 1e-15


@pytest.mark.parametrize(
    "mutation,deviations",
    [
        ({"unsymmetrized_pair": 1}, [0.289, 0.236, 0.192, 0.157]),
        # flipping a singlet's orientation only flips the state's sign; a
        # triplet in its place is the mutation a check can see
        ({"triplet_bond": 0}, [1.155, 0.943, 0.770, 0.629]),
    ],
    ids=["unsymmetrized-pair", "triplet-bond"],
)
@pytest.mark.parametrize("n_bulk", [1, 2, 3, 4])
def test_ground_truth_check_rejects_a_mutated_construction(
    monkeypatch, n_bulk, mutation, deviations
):
    def mutated(n):
        return valence_bond_reference(n, **(mutation if n == n_bulk else {}))

    monkeypatch.setattr(acceptance, "valence_bond_state", mutated)
    passed, detail = check_aklt_ground_truth(1.0)
    assert not passed
    assert worst_deviation(detail) == pytest.approx(deviations[n_bulk - 1], abs=1e-3)


@pytest.mark.parametrize("n_bulk", [1, 2, 3, 4])
@pytest.mark.parametrize("fault", ["perturbed", "degenerate"])
def test_ground_truth_check_rejects_a_faulty_ground_truth(monkeypatch, n_bulk, fault):
    def faulty(model):
        e1, chi1, gaps = ground_truth(model)
        if model.label != f"aklt{n_bulk}":
            return e1, chi1, gaps
        if fault == "perturbed":
            chi1 = chi1 + 1e-6 * np.eye(chi1.size)[0]
            return e1, chi1 / np.linalg.norm(chi1), gaps
        other = np.roll(chi1, 1)
        other -= np.vdot(chi1, other) * chi1
        return e1, np.stack([chi1, other / np.linalg.norm(other)], axis=1), gaps

    monkeypatch.setattr(acceptance, "ground_truth", faulty)
    passed, detail = check_aklt_ground_truth(1.0)
    assert not passed
    if fault == "degenerate":
        assert detail.startswith(f"aklt{n_bulk}: degenerate ground space")
    else:
        assert worst_deviation(detail) == pytest.approx(1e-6, rel=0.5)
