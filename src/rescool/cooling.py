"""Iterative ground-state purification by repeated probe measurement.

One iteration prepares |00>|phi>, evolves for tau = pi/(2c) on the resonance
eps0 = E_1 + 1, and measures the probe ancilla.  An excited outcome swaps the
ground component into the |11> sector intact while every excited component is
suppressed by its detuning, so conditioning on "excited" purifies the system
toward the ground state.  A ground outcome in stochastic mode discards the
streak and restarts from the original state.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

from .evolution import block_amplitudes, step_propagator
from .hamiltonian import AlgorithmConfig, SystemModel, step_branches
from .linalg import (
    DimensionMismatch,
    fidelity,
    align_global_phase,
    hermitian_eig,
    require_normalized,
)
from .models import DEGENERACY_ATOL, ground_truth

ZERO_BRANCH_ATOL = 1e-15
SLOW_PURIFICATION_FACTOR = 5.0


class ZeroBranch(ValueError):
    """Measurement branch carries (numerically) zero probability."""


class RestartCapExceeded(RuntimeError):
    """Stochastic run burned through its restart budget before m successes."""


class DivergentTail(ValueError):
    """a0 * c >= 1: the excited-weight series has no convergent bound."""


@dataclass(frozen=True)
class IterationRecord:
    """Outcome of one cycle; k is the position in the excited streak, reset on restart."""

    k: int
    outcome: str
    excitation_probability: float
    system_state: np.ndarray
    fidelity_to_target: float


@dataclass(frozen=True)
class CoolingReport:
    """Full trace of a cooling run plus the analytic bookkeeping.

    records holds every iteration in order, including failed stochastic
    attempts; restarts counts the discarded streaks.  succ_bound is the
    closed-form lower bound on finishing max_iterations consecutive excited
    outcomes (0.0 when a0*c >= 1 leaves no convergent bound).
    """

    records: list[IterationRecord]
    restarts: int
    final_state: np.ndarray
    d1_sq: float
    a0: float
    succ_bound: float
    mode: str
    seed: int
    initial_fidelity: float
    degenerate_ground: bool
    slow_purification: bool
    model_label: str


def ground_overlap(target: np.ndarray, phi) -> float:
    """Fidelity to a ground vector, or total weight on a degenerate ground basis."""
    t = np.asarray(target, dtype=complex)
    if t.ndim == 1:
        return fidelity(t, phi)
    vec = require_normalized(phi)
    if t.shape[0] != vec.size:
        raise DimensionMismatch(f"ground basis is {t.shape[0]}-dim, state is {vec.size}-dim")
    return float(np.sum(np.abs(t.conj().T @ vec) ** 2))


def measure_first_ancilla(p_excited: float, mode: str, rng) -> bool:
    """Probe outcome, True for excited: forced when post-selected, else one rng draw."""
    if mode == "post-selected":
        return True
    if mode == "stochastic":
        return bool(rng.random() < p_excited)
    raise ValueError(f"unknown mode {mode!r}")


def run_iteration(
    phi_in,
    model: SystemModel,
    config: AlgorithmConfig,
    rng,
    k: int = 1,
    *,
    u_step: np.ndarray,
    target: np.ndarray,
) -> IterationRecord:
    """One prepare-evolve-measure cycle starting from the given system state.

    u_step is the step_propagator result and target the ground_truth vector
    or basis; run_algorithm builds both once per run.
    """
    if np.size(phi_in) != model.dimension:
        raise DimensionMismatch(f"state is {np.size(phi_in)}-dim, model is {model.dimension}-dim")
    p_exc, ground, excited = step_branches(u_step, phi_in)
    if measure_first_ancilla(p_exc, config.mode, rng):
        outcome, branch, sys_state = "excited", p_exc, excited
    else:
        outcome, branch, sys_state = "ground", 1.0 - p_exc, ground
    if branch < ZERO_BRANCH_ATOL:
        raise ZeroBranch(f"{outcome} branch has probability {branch:.3e}")
    sys_state = sys_state / sqrt(branch)
    norm = float(np.linalg.norm(sys_state))
    if norm < 1e-12:
        raise ZeroBranch(f"system slice after collapse has norm {norm:.3e}")
    sys_state = sys_state / norm
    return IterationRecord(
        k=k,
        outcome=outcome,
        excitation_probability=p_exc,
        system_state=sys_state,
        fidelity_to_target=ground_overlap(target, sys_state),
    )


def compute_a0(model: SystemModel, phi0, c: float) -> float:
    """a0 = sqrt(sum_{j>1} |d_j c_j1|^2) / (|d_1| c) from the spectral overlaps.

    d_j are the eigenbasis coefficients of phi0; c_j1 is the closed-form
    amplitude of one resonant step (eps0 = E_1 + 1, tau = pi/(2c)).
    Degenerate ground levels pool into |d_1|^2.  A state with no
    ground-space weight gets a0 = inf: such a run can never purify, but it
    is still a legal thing to simulate.
    """
    if not c > 0:
        raise ValueError(f"coupling must be positive, got {c}")
    vec = require_normalized(phi0)
    es = hermitian_eig(model.h_s)
    e1 = float(es.eigenvalues[0])
    d = es.eigenvectors.conj().T @ vec
    excited = es.eigenvalues - e1 > DEGENERACY_ATOL
    d1_sq = float(np.sum(np.abs(d[~excited]) ** 2))
    if d1_sq < 1e-30:
        return float("inf")
    _, c_j1 = block_amplitudes(es.eigenvalues[excited], e1 + 1.0, c, pi / (2.0 * c))
    leak = float(np.sum(np.abs(d[excited] * c_j1) ** 2))
    return sqrt(leak) / (sqrt(d1_sq) * c)


def success_probability_bound(
    d1_sq: float, a0: float, c: float, m: int
) -> tuple[float, float]:
    """Probability estimates for m+1 consecutive excited outcomes: product and bound.

    product = d1_sq * prod_{k=1..m} 1/(1 + (a0 c)^{2k}) is the paper's
    estimate, which lumps every excited level into one worst-case rate; it
    is not the exact probability sum_j |d_j|^2 |c_j1|^{2(m+1)}, which can lie
    above it.  The bound is d1_sq * (1 - (a0 c)^2)^m.  Both equal d1_sq at
    m = 0 (empty product).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    x = a0 * c
    if x >= 1.0:
        raise DivergentTail(f"a0*c = {x:.6g} >= 1, no convergent bound")
    product = d1_sq
    for k in range(1, m + 1):
        product /= 1.0 + x ** (2 * k)
    lower = d1_sq * (1.0 - x * x) ** m
    return product, lower


def run_algorithm(
    model: SystemModel,
    config: AlgorithmConfig,
    phi0,
    rng=None,
) -> CoolingReport:
    """Run until max_iterations consecutive excited outcomes, restarting on failure.

    Post-selected mode forces every outcome and never restarts.  Stochastic
    mode restarts from phi0 after each ground outcome; RestartCapExceeded
    aborts once restarts pass config.restart_cap.  max_iterations = 0 yields
    a report with no iterations (initial bookkeeping only).
    """
    phi0 = require_normalized(phi0)
    if phi0.size != model.dimension:
        raise DimensionMismatch(f"state is {phi0.size}-dim, model is {model.dimension}-dim")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    e1, chi1, gaps = ground_truth(model)
    degenerate = chi1.ndim == 2
    positive_gaps = gaps[gaps > DEGENERACY_ATOL]
    delta_min = float(positive_gaps.min()) if positive_gaps.size else float("inf")
    slow = isfinite(delta_min) and delta_min < SLOW_PURIFICATION_FACTOR * config.coupling
    d1_sq = ground_overlap(chi1, phi0)
    a0 = compute_a0(model, phi0, config.coupling)
    m_tail = max(config.max_iterations - 1, 0)
    if a0 * config.coupling < 1.0:
        _, succ_bound = success_probability_bound(d1_sq, a0, config.coupling, m_tail)
    else:
        succ_bound = 0.0
    u = step_propagator(model, config) if config.max_iterations else None
    records: list[IterationRecord] = []
    streak = 0
    restarts = 0
    phi = phi0
    while streak < config.max_iterations:
        rec = run_iteration(phi, model, config, rng, k=streak + 1, u_step=u, target=chi1)
        records.append(rec)
        if rec.outcome == "excited":
            streak += 1
            phi = rec.system_state
        else:
            restarts += 1
            if restarts > config.restart_cap:
                raise RestartCapExceeded(
                    f"{restarts} restarts exceed cap {config.restart_cap} "
                    f"before {config.max_iterations} consecutive excited outcomes"
                )
            streak = 0
            phi = phi0
    return CoolingReport(
        records=records,
        restarts=restarts,
        final_state=phi,
        d1_sq=d1_sq,
        a0=a0,
        succ_bound=succ_bound,
        mode=config.mode,
        seed=config.seed,
        initial_fidelity=d1_sq,
        degenerate_ground=degenerate,
        slow_purification=slow,
        model_label=model.label,
    )


def render_report(report: CoolingReport) -> str:
    """Line-oriented text form: metadata, iteration rows, final amplitudes.

    Amplitude rows carry the final state with its global phase removed
    (largest amplitude real positive); raw states stay on the report object.
    """
    lines = [
        f"mode={report.mode}",
        f"seed={report.seed}",
        f"model={report.model_label}",
        f"restarts={report.restarts}",
        f"d1_sq={report.d1_sq:.12g}",
        f"a0={report.a0:.12g}",
        f"succ_bound={report.succ_bound:.12g}",
        f"initial_fidelity={report.initial_fidelity:.12g}",
        f"degenerate_ground={'true' if report.degenerate_ground else 'false'}",
        f"slow_purification={'true' if report.slow_purification else 'false'}",
        "k,outcome,probability,fidelity",
    ]
    for rec in report.records:
        lines.append(
            f"{rec.k},{rec.outcome},{rec.excitation_probability:.12g},"
            f"{rec.fidelity_to_target:.12g}"
        )
    lines.append("index,re,im")
    shown = align_global_phase(report.final_state)
    for i, z in enumerate(shown):
        lines.append(f"{i},{z.real:.12g},{z.imag:.12g}")
    return "\n".join(lines) + "\n"
