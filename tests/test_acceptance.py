"""Acceptance gate: every shipped verification check at its stated tolerance.

Each parametrized case prints one PASS/FAIL line with the measured numbers.
The one- and two-iteration checks compare the dense run with the closed-form
block states; the test below shows that comparison is not a tautology by
feeding it states that are near, but not equal to, the block states.
"""
import numpy as np
import pytest

from rescool.acceptance import (
    CHECKS,
    _block_state,
    _chain_blocks,
    _pattern_vector,
    _state_deviation,
    render_results,
    run_checks,
)

# Printed one- and two-iteration patterns the checks used to target.  No
# coupling or detuning reaches them: the one-step fidelity is fixed at
# 1/(1 + (a0 c)^2) = 0.966073, below the band [0.98, 1] they came with.
FORMER_PATTERNS = {
    1: _pattern_vector({3: 0.321, 5: 0.321, 10: 0.321, 6: -0.573, 9: -0.573, 12: 0.186}),
    2: _pattern_vector({3: 0.288, 5: 0.288, 10: 0.288, 6: -0.577, 9: -0.577, 12: 0.292}),
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
    _, vecs, d, c_j1 = _chain_blocks()
    dropped = vecs @ (d * np.real(c_j1 / c_j1[0]) ** m)
    dropped /= np.linalg.norm(dropped)
    assert _state_deviation(target, pattern) == pytest.approx(pattern_dev, abs=1e-4)
    assert _state_deviation(target, dropped) == pytest.approx(dropped_dev, abs=1e-4)
    assert _state_deviation(pattern, dropped) == pytest.approx(dropped_to_pattern, abs=1e-4)
