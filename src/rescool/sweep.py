"""Ground-energy location by scanning the reference eigenvalue.

The probe excitation probability after one step peaks when eps0 sits on the
resonance eps0 = E_1 + 1, so a grid scan over eps0 followed by an argmax
reads off the ground energy as peak - 1.  Probabilities are exact when
shots = 0 and binomial estimates otherwise, with one RNG stream per grid
point derived from (seed, point index).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi, sqrt

import numpy as np

from .hamiltonian import SystemModel, assemble_hamiltonian, step_branches
from .linalg import propagator_action, require_normalized

FLAT_CURVE_FLOOR = 1e-12


class FlatCurve(RuntimeError):
    """Scan found no resolvable peak (probability range below noise)."""


@dataclass
class SweepConfig:
    """Grid scan parameters; coupling may be zero (the curve is then flat).

    shots = 0 evaluates exact probabilities; tau defaults to the half period
    pi/(2 coupling) when the coupling is positive.
    """

    eps_min: float
    eps_max: float
    points: int
    shots: int = 0
    coupling: float = 0.05
    tau: float | None = None
    seed: int = 0

    def __post_init__(self):
        # Each condition is written so that NaN and infinities fail it.
        if not -inf < self.eps_min < self.eps_max < inf:
            raise ValueError(f"need eps_min < eps_max, got [{self.eps_min}, {self.eps_max}]")
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        # Generator.binomial takes an int64 trial count.
        if not 0 <= self.shots <= np.iinfo(np.int64).max:
            raise ValueError(f"shots must be in [0, 2**63 - 1], got {self.shots}")
        if not 0 <= self.coupling < inf:
            raise ValueError(f"coupling must be >= 0 and finite, got {self.coupling}")
        if self.tau is None:
            self.tau = pi / (2.0 * self.coupling) if self.coupling > 0 else 0.0
        if not 0 <= self.tau < inf:
            raise ValueError(f"tau must be >= 0 and finite, got {self.tau}")


@dataclass(frozen=True)
class SweepResult:
    """Scan output; refined_peak is the quadratic-vertex estimate and is
    reported separately from the grid argmax peak_epsilon."""

    grid: np.ndarray
    probabilities: np.ndarray
    stderr: np.ndarray
    shots: int
    peak_epsilon: float
    estimated_e1: float
    refined_peak: float


def excitation_probability(
    model: SystemModel,
    epsilon0: float,
    c: float,
    tau: float,
    phi0,
    shots: int = 0,
    rng=None,
) -> tuple[float, float]:
    """Probe excitation probability of U(tau)|00 phi0> at one eps0.

    shots = 0 returns the exact branch weight with stderr 0; shots > 0
    returns a binomial estimate and its standard error.
    """
    step = propagator_action(assemble_hamiltonian(model.h_s, epsilon0, c), tau, model.dimension)
    p_exact, _, _ = step_branches(step, phi0)
    if shots == 0:
        return p_exact, 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    hits = int(rng.binomial(shots, p_exact))
    p_hat = hits / shots
    return p_hat, sqrt(p_hat * (1.0 - p_hat) / shots)


def scan(model: SystemModel, sweep_config: SweepConfig, phi0) -> SweepResult:
    """Evaluate the probability curve on the grid and locate its peak.

    The peak is the grid argmax; ties break toward the lower eps0 (first
    maximum on the ascending grid).  FlatCurve is raised when the curve's
    range is below twice the median standard error (with a small absolute
    floor so exact flat curves also trip it).
    """
    vec = require_normalized(phi0)
    grid = np.linspace(sweep_config.eps_min, sweep_config.eps_max, sweep_config.points)
    probs = np.zeros(sweep_config.points)
    errs = np.zeros(sweep_config.points)
    for i, eps0 in enumerate(grid):
        rng = np.random.default_rng(np.random.SeedSequence(sweep_config.seed, spawn_key=(i,)))
        probs[i], errs[i] = excitation_probability(
            model,
            float(eps0),
            sweep_config.coupling,
            sweep_config.tau,
            vec,
            shots=sweep_config.shots,
            rng=rng,
        )
    spread = float(probs.max() - probs.min())
    noise = max(2.0 * float(np.median(errs)), FLAT_CURVE_FLOOR)
    if spread < noise:
        raise FlatCurve(f"probability range {spread:.3e} is below the noise floor {noise:.3e}")
    peak_index = int(np.argmax(probs))
    peak = float(grid[peak_index])
    return SweepResult(
        grid=grid,
        probabilities=probs,
        stderr=errs,
        shots=sweep_config.shots,
        peak_epsilon=peak,
        estimated_e1=peak - 1.0,
        refined_peak=_quadratic_vertex(grid, probs, peak_index),
    )


def _quadratic_vertex(grid: np.ndarray, probs: np.ndarray, k: int) -> float:
    """Vertex of the parabola through the argmax and its two neighbors."""
    if k == 0 or k == grid.size - 1:
        return float(grid[k])
    y0, y1, y2 = probs[k - 1], probs[k], probs[k + 1]
    denom = y0 - 2.0 * y1 + y2
    if abs(denom) < 1e-300:
        return float(grid[k])
    h = float(grid[1] - grid[0])
    return float(grid[k] + 0.5 * h * (y0 - y2) / denom)


def render_csv(result: SweepResult) -> str:
    """CSV text for the curve: header row, one row per grid point."""
    lines = ["epsilon0,probability,stderr,shots"]
    for eps0, p, err in zip(result.grid, result.probabilities, result.stderr):
        lines.append(f"{eps0:.12g},{p:.12g},{err:.12g},{result.shots}")
    return "\n".join(lines) + "\n"
