"""Iterative ground-state purification by repeated probe measurement.

One iteration prepares |00>|phi>, evolves for tau = pi/(2c) on the resonance
eps0 = E_1 + 1, and measures the probe ancilla.  An excited outcome swaps the
ground component into the |11> sector intact while every excited component is
suppressed by its detuning, so conditioning on "excited" purifies the system
toward the ground state.  A ground outcome in stochastic mode discards the
streak and restarts from the original state.  An iteration multiplies each
overlap d_j = <chi_j|phi> by c_j0 or c_j1, so every attempt walks one streak,
d0 c_1^k at position k; a run forms each position's step and drawn branch
once, on the levels phi0 touches, and crosses the eigenbasis twice: in for
phi0, out for the at most 2m distinct states its records share.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, inf, pi, sqrt

import numpy as np

from .evolution import block_amplitudes, step_propagator
from .hamiltonian import AlgorithmConfig
from .linalg import (
    DimensionMismatch,
    fidelity,
    align_global_phase,
    require_finite_block_phase,
    require_normalized,
)
from .models import DEGENERACY_ATOL, SystemModel

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
    outcomes (0.0 when a0*c >= 1 leaves no convergent bound).  a0 and
    succ_bound describe the resonant half-period step (eps0 = E_1 + 1,
    tau = pi/(2c)) whatever config.epsilon0 and config.tau say; off that
    step succ_bound does not bound the run.  seed is config.seed, even when
    a caller's rng, not one seeded from it, drove the run.
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


def _level_facts(energies: np.ndarray, d: np.ndarray, c: float):
    """(ground mask, d1_sq, a0 as compute_a0 defines it, lowest excitation gap) of overlaps d."""
    tau = pi / (2.0 * c)
    e1 = float(energies.min())
    require_finite_block_phase(energies, e1 + 1.0, c, tau)
    ground = energies - e1 <= DEGENERACY_ATOL
    delta_min = float(np.min(energies[~ground], initial=inf)) - e1
    d1_sq = float(np.sum(np.abs(d[ground]) ** 2))
    if d1_sq < 1e-30:
        return ground, d1_sq, inf, delta_min
    excited = ~ground & (d != 0)
    _, c_j1 = block_amplitudes(energies[excited], e1 + 1.0, c, tau)
    # math.hypot scales its arguments: the squares of |d_j c_j1| ~ c underflow
    # below c ~ 1e-154, and dividing by c first underflows them at c ~ 1e300
    return ground, d1_sq, hypot(*np.abs(d[excited] * c_j1)) / c / sqrt(d1_sq), delta_min


def compute_a0(model: SystemModel, phi0, c: float) -> float:
    """a0 = sqrt(sum_{j>1} |d_j c_j1|^2) / (|d_1| c) from the spectral overlaps.

    d_j are the eigenbasis coefficients of phi0 on model.spectrum; c_j1 is
    the closed-form amplitude of one resonant step (eps0 = E_1 + 1,
    tau = pi/(2c)).  Degenerate ground levels pool into |d_1|^2.  A state
    with no ground-space weight gets a0 = inf: such a run can never purify,
    but it is still a legal thing to simulate.  It raises for c <= 0 first,
    then for a state of the wrong size, then for a phase of that step's blocks
    that is not finite; run_algorithm takes the same a0 from its own overlaps.
    """
    if not c > 0:
        raise ValueError(f"coupling must be positive, got {c}")
    energies, d = model.spectrum.overlaps(require_normalized(phi0))
    return _level_facts(energies, d, c)[2]


def success_probability_bound(d1_sq: float, a0: float, c: float, m: int) -> tuple[float, float]:
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
    return product, d1_sq * (1.0 - x * x) ** m


def run_algorithm(model: SystemModel, config: AlgorithmConfig, phi0, rng=None) -> CoolingReport:
    """Run until max_iterations consecutive excited outcomes, restarting on failure.

    Post-selected mode forces every outcome and never restarts.  Stochastic
    mode restarts from phi0 after each ground outcome; RestartCapExceeded
    aborts once restarts pass config.restart_cap.  max_iterations = 0 yields
    a report with no iterations (initial bookkeeping only).  A fidelity is the
    weight of d on the ground levels, every E_j - E_1 <= DEGENERACY_ATOL.
    phi0 enters the eigenbasis once; d1_sq, a0 and the flags share its overlaps
    d0.  The streak steps only their support S, once every phase is refused, and
    each position once: a restart walks the same table again from position 0.
    """
    phi0 = require_normalized(phi0)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    energies, d0 = model.spectrum.overlaps(phi0)
    ground, d1_sq, a0, delta_min = _level_facts(energies, d0, config.coupling)
    m_tail = max(config.max_iterations - 1, 0)
    if a0 * config.coupling < 1.0:
        _, succ_bound = success_probability_bound(d1_sq, a0, config.coupling, m_tail)
    else:
        succ_bound = 0.0
    support = np.flatnonzero(d0)
    if config.max_iterations:
        args = (config.epsilon0, config.coupling, config.tau, config.trotter_steps)
        c_0, c_1 = step_propagator(energies, *args, support)
        require_normalized(d0)  # the eigenbasis crossing, once the step's refusals have run
    table = []  # the k-th step's (p_excited, d c_0, d c_1), formed when the walk first reaches it
    branches = {}  # (k, outcome) -> normalized d after the k-th outcome, formed when first drawn
    rows = []  # (k, outcome) of every record
    streak = restarts = 0
    while streak < config.max_iterations:
        if streak == len(table):  # first reach: from d0, or through the streak-th excited outcome
            d = branches[streak, "excited"] if streak else d0[support]
            d_excited = d * c_1
            table.append((min(float(np.sum(np.abs(d_excited) ** 2)), 1.0), d * c_0, d_excited))
        p_exc, d_ground, d_excited = table[streak]
        outcome = "excited" if measure_first_ancilla(p_exc, config.mode, rng) else "ground"
        key = (streak + 1, outcome)
        if key not in branches:
            branch, d = (p_exc, d_excited) if outcome == "excited" else (1.0 - p_exc, d_ground)
            if branch < ZERO_BRANCH_ATOL:
                raise ZeroBranch(f"{outcome} branch has probability {branch:.3e}")
            branches[key] = d / np.linalg.norm(d)
        rows.append(key)
        if outcome == "excited":
            streak += 1
        else:
            restarts += 1
            if restarts > config.restart_cap:
                raise RestartCapExceeded(
                    f"{restarts} restarts exceed cap {config.restart_cap} "
                    f"before {config.max_iterations} consecutive excited outcomes"
                )
            streak = 0
    states = [phi0]
    if rows:  # the last branch formed is the run's last record, the m-th excited outcome
        overlaps = np.zeros((d0.size, len(branches)), dtype=complex)
        overlaps[support] = np.stack(list(branches.values()), axis=1)
        states = model.spectrum.combine(overlaps).T
    shared = {}  # one record per branch, which every draw of that branch refers to
    for ((k, outcome), d), state in zip(branches.items(), states):
        fid = float(np.sum(np.abs(d[ground[support]]) ** 2))
        shared[k, outcome] = IterationRecord(k, outcome, table[k - 1][0], state, fid)
    return CoolingReport(
        records=[shared[key] for key in rows],
        restarts=restarts,
        final_state=states[-1],
        d1_sq=d1_sq,
        a0=a0,
        succ_bound=succ_bound,
        mode=config.mode,
        seed=config.seed,
        initial_fidelity=d1_sq,
        degenerate_ground=int(ground.sum()) > 1,
        slow_purification=delta_min < SLOW_PURIFICATION_FACTOR * config.coupling,
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
        p_exc, fid = rec.excitation_probability, rec.fidelity_to_target
        lines.append(f"{rec.k},{rec.outcome},{p_exc:.12g},{fid:.12g}")
    lines.append("index,re,im\n")
    shown = align_global_phase(report.final_state)
    # one %-format over Python floats, the text f"{x:.12g}" gives, for every row at once
    cells = np.stack([np.arange(shown.size), shown.real, shown.imag], axis=1).ravel().tolist()
    return "\n".join(lines) + "%d,%.12g,%.12g\n" * shown.size % tuple(cells)
