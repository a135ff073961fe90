"""End-to-end verification suite with one pass/fail line per check.

Each check pins a headline number of the simulator: the AKLT ground truth,
the one- and two-iteration states, the sweep peak, the closed-form amplitude
oracle, the consecutive-success bound, Trotter error scaling, monotone
purification on random gapped models, and the resonant fixed point.  The
oracle builds its own references.  The AKLT ground state chi_1 is the
valence-bond state, built with no diagonalization and checked against
ground_truth on aklt1 to aklt4.  The iteration states, the sweep curve and
the streak probability are compared with closed forms built from one numpy
eigh of the aklt1 H_S and block_amplitudes alone (the block states
psi_m ∝ sum_j d_j c_j1^m chi_j, the curve sum_j |d_j c_j1(eps0)|^2 and the
streak sum_j |d_j|^2 |c_j1|^6), which share the run path's closed form
but not its eigendecomposition.  The dense 4N register, which no run path
builds, is the path independent of both: trotter-scaling compares its split
with trotter_amplitudes level by level, and resonance-fixed-point compares
the run step's branches with its exp(-iH tau).  tolerance_scale multiplies
every numeric tolerance, so 0.1 runs the suite tightened tenfold and
values > 1 loosen it; the two-iteration purification threshold and the
sweep peak's one-grid-step window are properties of the algorithm and the
grid, not tolerances, and stay fixed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import inf, pi, sqrt

import numpy as np

from .cooling import (
    RestartCapExceeded,
    compute_a0,
    run_algorithm,
    success_probability_bound,
)
from .evolution import block_amplitudes, step_propagator, trotter_amplitudes, trotter_propagator
from .hamiltonian import AlgorithmConfig, assemble_hamiltonian, split_parts
from .linalg import fidelity, propagator
from .models import build_aklt, build_diagonal, ground_truth, valence_bond_state
from .sweep import SweepConfig, scan

MC_SEED = 20240815
MC_RUNS = 10000
MODELS_SEED = 20240811
ORACLE_SEED = 20240806


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _state_deviation(target: np.ndarray, state: np.ndarray) -> float:
    """Largest amplitude gap once the global phase best matching target is removed."""
    vec = np.asarray(state, dtype=complex)
    z = complex(np.vdot(np.asarray(target, dtype=complex), vec))
    if abs(z) != 0.0:
        vec = vec * (z.conjugate() / abs(z))
    return float(np.max(np.abs(vec - target)))


@lru_cache(maxsize=1)
def _chain_context():
    """The aklt1 chain, |1100>, and H_S's levels E_j, vectors chi_j, d_j = <chi_j|1100> and c_j1.

    The spectrum comes from one numpy eigh of the dense H_S, not from the run's solve.
    c_j1 is the closed-form amplitude one step of the chain runs below
    (eps0 = 1, c = 0.05, tau = pi/(2c)) moves from |00 chi_j> to |11 chi_j>;
    the chain's E_1 = 0 puts eps0 = 1 on resonance.
    """
    model = build_aklt(1)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    energies, vecs = np.linalg.eigh(model.h_s)
    _, c_j1 = block_amplitudes(energies, 1.0, 0.05, pi / (2.0 * 0.05))
    return model, phi0, energies, vecs, vecs.conj().T @ phi0, c_j1


def check_aklt_ground_truth(scale: float) -> tuple[bool, str]:
    tol = 1e-8 * scale
    e1s, devs = [], []
    for n_bulk in range(1, 5):
        e1, chi1, _ = ground_truth(build_aklt(n_bulk))
        if chi1.ndim != 1:
            return False, f"aklt{n_bulk}: degenerate ground space, expected a unique ground state"
        e1s.append(abs(e1))
        devs.append(_state_deviation(valence_bond_state(n_bulk), chi1))
    # np.max keeps a NaN, which then fails the comparison
    worst_e1, worst_dev = float(np.max(e1s)), float(np.max(devs))
    passed = worst_e1 <= tol and worst_dev <= tol
    return passed, (
        f"aklt1-aklt4: worst |E1|={worst_e1:.3e}, worst deviation {worst_dev:.3e} "
        f"from the valence-bond state (tol {tol:.1e})"
    )


def check_initial_fidelity(scale: float) -> tuple[bool, str]:
    _, phi0, _, _, _, _ = _chain_context()
    tol = 1e-10 * scale
    fid = fidelity(phi0, valence_bond_state(1))
    dev = abs(fid - 1.0 / 12.0)
    return dev <= tol, f"fidelity {fid:.12f} vs 1/12, deviation {dev:.3e} (tol {tol:.1e})"


def _block_state(iterations: int) -> tuple[np.ndarray, float]:
    """Closed-form system state and ground fidelity after post-selected iterations.

    Each excited outcome keeps the |11 chi_j> component of every block, so the
    state after m of them is psi_m ∝ sum_j d_j c_j1^m chi_j, and its fidelity
    is the share of the (unique) ground level chi_1.  At m = 1 that share is
    1 / (1 + (a0 c)^2).
    """
    _, _, _, vecs, d, c_j1 = _chain_context()
    coeffs = d * c_j1**iterations
    weights = np.abs(coeffs) ** 2
    total = float(weights.sum())
    return vecs @ coeffs / sqrt(total), float(weights[0]) / total


def _purification_run(iterations: int) -> tuple[np.ndarray, list[float]]:
    """Final state and fidelity trace (initial first) of the dense post-selected run."""
    model, phi0, _, _, _, _ = _chain_context()
    config = AlgorithmConfig(
        epsilon0=1.0, coupling=0.05, mode="post-selected", max_iterations=iterations
    )
    report = run_algorithm(model, config, phi0)
    trace = [report.initial_fidelity] + [r.fidelity_to_target for r in report.records]
    return report.final_state, trace


def check_one_iteration_state(scale: float) -> tuple[bool, str]:
    state, trace = _purification_run(1)
    target, target_fid = _block_state(1)
    amp_tol = 1e-8 * scale
    fid_tol = 1e-10 * scale
    amp_dev = _state_deviation(target, state)
    fid = trace[-1]
    fid_dev = abs(fid - target_fid)
    passed = amp_dev <= amp_tol and fid_dev <= fid_tol and trace[0] < fid
    return passed, (
        f"amplitude deviation {amp_dev:.2e} from the block state (tol {amp_tol:.1e}), "
        f"fidelity {fid:.6f} vs closed form {target_fid:.6f}, "
        f"deviation {fid_dev:.2e} (tol {fid_tol:.1e}), rise from {trace[0]:.6f}"
    )


def check_two_iteration_state(scale: float) -> tuple[bool, str]:
    state, trace = _purification_run(2)
    target, _ = _block_state(2)
    amp_tol = 1e-8 * scale
    amp_dev = _state_deviation(target, state)
    infid_tol = 0.001
    fid = trace[-1]
    passed = amp_dev <= amp_tol and 1.0 - fid <= infid_tol and trace[0] < trace[1] < fid
    return passed, (
        f"amplitude deviation {amp_dev:.2e} from the block state (tol {amp_tol:.1e}), "
        f"fidelity {fid:.6f} (needs >= {1.0 - infid_tol:.4f}), "
        f"rise {trace[0]:.6f} < {trace[1]:.6f} < {fid:.6f}"
    )


def check_sweep_peak(scale: float) -> tuple[bool, str]:
    model, phi0, energies, _, d, _ = _chain_context()
    cfg = SweepConfig(eps_min=0.8, eps_max=1.2, points=100, shots=0, coupling=0.05)
    result = scan(model, cfg, phi0)
    _, c_j1 = block_amplitudes(energies, result.grid[:, None], cfg.coupling, cfg.tau)
    curve = np.sum(np.abs(d * c_j1) ** 2, axis=1)
    curve_peak = float(result.grid[np.argmax(curve)])
    curve_dev = float(np.max(np.abs(result.probabilities - curve)))
    step = (cfg.eps_max - cfg.eps_min) / (cfg.points - 1)
    tol = 1e-10 * scale
    passed = (
        abs(result.peak_epsilon - 1.0) <= step + 1e-12
        and result.peak_epsilon == curve_peak
        and curve_dev <= tol
    )
    return passed, (
        f"peak eps0={result.peak_epsilon:.6f} (grid step {step:.5f}), "
        f"closed-form peak eps0={curve_peak:.6f}, "
        f"curve deviation {curve_dev:.2e} from the closed form (tol {tol:.1e})"
    )


def check_analytic_oracle(scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(ORACLE_SEED)
    amp_tol = 1e-9 * scale
    unit_tol = 1e-10 * scale
    worst_amp = 0.0
    worst_unit = 0.0
    for _ in range(200):
        e1 = -2.0 + 4.0 * rng.random()
        ej = e1 + 5.0 * rng.random()
        c = 1e-3 + (0.2 - 1e-3) * rng.random()
        resonant = (e1 + 1.0, pi / (2.0 * c))
        detuned = (e1 + 2.0 * rng.random(), pi * rng.random() / c)
        for eps0, tau in (resonant, detuned):
            block = np.array([[eps0 - 0.5, c], [c, 0.5 + ej]], dtype=complex)
            column = propagator(block, tau)[:, 0]
            c_j0, c_j1 = block_amplitudes(ej, eps0, c, tau)
            worst_amp = max(worst_amp, abs(column[0] - c_j0), abs(column[1] - c_j1))
            worst_unit = max(worst_unit, abs(abs(c_j0) ** 2 + abs(c_j1) ** 2 - 1.0))
    passed = worst_amp <= amp_tol and worst_unit <= unit_tol
    return passed, (
        f"worst amplitude deviation {worst_amp:.2e} (tol {amp_tol:.1e}), "
        f"worst norm deviation {worst_unit:.2e} (tol {unit_tol:.1e}) over 200 triples, "
        f"on resonance and off"
    )


def check_success_bound(scale: float) -> tuple[bool, str]:
    model, phi0, _, _, d, c_j1 = _chain_context()
    coupling = 0.05
    d1_sq = float(abs(d[0]) ** 2)
    a0 = compute_a0(model, phi0, coupling)
    _, lower_bound = success_probability_bound(d1_sq, a0, coupling, 2)
    # Each excited outcome keeps |c_j1|^2 of level j's weight.
    streak = float(np.sum(np.abs(d) ** 2 * np.abs(c_j1) ** 6))
    config = AlgorithmConfig(
        epsilon0=1.0, coupling=coupling, mode="stochastic", max_iterations=3, restart_cap=0
    )
    successes = 0
    for i in range(MC_RUNS):
        rng = np.random.default_rng(np.random.SeedSequence(MC_SEED, spawn_key=(i,)))
        try:
            run_algorithm(model, config, phi0, rng=rng)
            successes += 1
        except RestartCapExceeded:
            pass
    freq = successes / MC_RUNS
    sigma = sqrt(freq * (1.0 - freq) / MC_RUNS)
    lo = lower_bound - 3.0 * sigma * scale
    hi = streak + 3.0 * sigma * scale
    passed = lo <= freq <= hi
    return passed, (
        f"3-consecutive-success frequency {freq:.4f} over {MC_RUNS} runs, "
        f"window [{lo:.6f}, {hi:.6f}] around the bound {lower_bound:.6f} "
        f"and the closed form {streak:.6f}"
    )


def check_trotter_scaling(scale: float) -> tuple[bool, str]:
    model, phi0, energies, vecs, _, _ = _chain_context()
    n_dim = energies.size
    config = AlgorithmConfig(epsilon0=1.0, coupling=0.05, mode="post-selected", max_iterations=1)
    h_full = assemble_hamiltonian(model.h_s, config.epsilon0, config.coupling)
    u_exact = propagator(h_full, config.tau)
    part_a, part_b = split_parts(model.h_s, config.epsilon0, config.coupling)
    errors, level_devs = [], []
    for steps in (64, 128, 256):
        u_trot = trotter_propagator(part_a, part_b, config.tau, steps)
        errors.append(float(np.max(np.abs(u_trot - u_exact))))
        # the dense split on |00 chi_j> against the per-level split the run path takes
        c_j0, c_j1 = trotter_amplitudes(
            energies, config.epsilon0, config.coupling, config.tau, steps
        )
        level = np.zeros((4 * n_dim, n_dim), dtype=complex)
        level[:n_dim], level[3 * n_dim :] = vecs * c_j0, vecs * c_j1
        level_devs.append(float(np.max(np.abs(u_trot[:, :n_dim] @ vecs - level))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ratio_lo, ratio_hi = 2.0 - 0.4 * scale, 2.0 + 0.4 * scale
    level_tol = 1e-10 * scale
    report = run_algorithm(model, replace(config, trotter_steps=512), phi0)
    fid = report.records[-1].fidelity_to_target
    target_fid = 1.0 / (1.0 + (report.a0 * config.coupling) ** 2)
    fid_dev = abs(fid - target_fid)
    # np.max keeps a NaN, which then fails the comparison
    level_dev = float(np.max(level_devs))
    passed = (
        errors[0] > errors[1] > errors[2]
        and all(ratio_lo <= r <= ratio_hi for r in ratios)
        and level_dev <= level_tol
        and fid_dev <= 1e-3 * scale
    )
    return passed, (
        f"errors {errors[0]:.3e}/{errors[1]:.3e}/{errors[2]:.3e}, "
        f"ratios {ratios[0]:.3f},{ratios[1]:.3f} (band [{ratio_lo:.2f}, {ratio_hi:.2f}]), "
        f"per-level split deviation {level_dev:.2e} from the dense split (tol {level_tol:.1e}), "
        f"L=512 fidelity {fid:.6f} vs closed form {target_fid:.6f}, "
        f"deviation {fid_dev:.2e} (tol {1e-3 * scale:.1e})"
    )


def check_monotone_convergence(scale: float) -> tuple[bool, str]:
    rng = np.random.default_rng(MODELS_SEED)
    infid_tol = 1e-6 * scale
    worst_final = 0.0
    monotone = True
    for _ in range(50):
        levels = np.concatenate([[0.0], np.sort(0.5 + 3.0 * rng.random(7))])
        while True:
            z = rng.normal(size=8) + 1j * rng.normal(size=8)
            z /= np.linalg.norm(z)
            if abs(z[0]) ** 2 >= 0.05:
                break
        model = build_diagonal(levels)
        config = AlgorithmConfig(
            epsilon0=1.0, coupling=0.05, mode="post-selected", max_iterations=5
        )
        report = run_algorithm(model, config, z)
        trace = [report.initial_fidelity] + [r.fidelity_to_target for r in report.records]
        for prev, cur in zip(trace, trace[1:]):
            if cur < prev - 1e-15:
                monotone = False
        worst_final = max(worst_final, 1.0 - trace[-1])
    passed = monotone and worst_final <= infid_tol
    return passed, (
        f"monotone={monotone}, worst final infidelity {worst_final:.2e} "
        f"(tol {infid_tol:.1e}) over 50 models"
    )


def check_resonance_fixed_point(scale: float) -> tuple[bool, str]:
    model = _chain_context()[0]
    n_dim = model.dimension
    chi1 = valence_bond_state(1)
    tau = pi / (2.0 * 0.05)
    c_0, c_1 = step_propagator(model.spectrum.energies, 1.0, 0.05, tau)
    # the run step's branches on |00 chi_1> against the dense register's exp(-iH tau)
    d = model.spectrum.overlaps(chi1)[1]
    ground, excited = model.spectrum.combine(np.stack([d * c_0, d * c_1], axis=1)).T
    want = propagator(assemble_hamiltonian(model.h_s, 1.0, 0.05), tau)[:, :n_dim] @ chi1
    branch_dev = max(
        float(np.max(np.abs(ground - want[:n_dim]))),
        float(np.max(np.abs(excited - want[3 * n_dim :]))),
    )
    config = AlgorithmConfig(epsilon0=1.0, coupling=0.05, mode="post-selected", max_iterations=1)
    (record,) = run_algorithm(model, config, chi1).records
    prob_dev = abs(record.excitation_probability - 1.0)
    state_dev = _state_deviation(chi1, record.system_state)
    passed = (
        prob_dev <= 1e-9 * scale and state_dev <= 1e-8 * scale and branch_dev <= 1e-10 * scale
    )
    return passed, (
        f"excitation probability deviation {prob_dev:.2e} (tol {1e-9 * scale:.1e}), "
        f"state deviation {state_dev:.2e} (tol {1e-8 * scale:.1e}), "
        f"branch deviation {branch_dev:.2e} from the dense register (tol {1e-10 * scale:.1e})"
    )


CHECKS = [
    ("aklt-ground-truth", check_aklt_ground_truth),
    ("initial-fidelity", check_initial_fidelity),
    ("one-iteration-state", check_one_iteration_state),
    ("two-iteration-state", check_two_iteration_state),
    ("sweep-peak", check_sweep_peak),
    ("analytic-oracle", check_analytic_oracle),
    ("success-bound", check_success_bound),
    ("trotter-scaling", check_trotter_scaling),
    ("monotone-convergence", check_monotone_convergence),
    ("resonance-fixed-point", check_resonance_fixed_point),
]


def run_checks(only: str = "", tolerance_scale: float = 1.0) -> list[CheckResult]:
    """Run every check whose name contains the filter substring."""
    # Written so that NaN fails it: an infinite scale would pass every check vacuously.
    if not 0 < tolerance_scale < inf:
        raise ValueError(f"tolerance_scale must be positive and finite, got {tolerance_scale}")
    results = []
    for name, fn in CHECKS:
        if only and only not in name:
            continue
        try:
            passed, detail = fn(tolerance_scale)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results


def render_results(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
