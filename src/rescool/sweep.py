"""Ground-energy location by scanning the reference eigenvalue.

The probe excitation probability after one step peaks when eps0 sits on the
resonance eps0 = E_1 + 1, so a grid scan over eps0 followed by an argmax
reads off the ground energy as peak - 1.  On the model's spectrum that
probability is sum_j |d_j|^2 |c_j1(eps0)|^2, d = V^dag phi0, one real sum
over the levels phi0 touches.  Probabilities are exact when shots = 0 and
binomial estimates otherwise, one RNG stream per (seed, point index).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, pi, sqrt

import numpy as np

from .evolution import _block_sine
from .linalg import require_finite_block_phase, require_normalized
from .models import SystemModel

FLAT_CURVE_FLOOR = 1e-12
# Grid points per broadcast: at most 2^16 amplitudes, 512 KiB of float, per array.
CHUNK_AMPLITUDES = 2**16
# Largest grid: a million points, an aklt1 sweep with its CSV written to a
# file, peaked at 124 MB RSS end to end, mostly the 35 B per row of CSV text
# held as chunks and joined.  Allocations succeed under overcommit until the
# process is killed, so the count is refused before anything grid-sized exists.
POINTS_CAP = 10**6
# CSV rows per %-format, whose Python floats take ~200 B a row against 35 B of text.
CSV_CHUNK_ROWS = 2**12


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
        if not 2 <= self.points <= POINTS_CAP:
            raise ValueError(f"need 2 to {POINTS_CAP} grid points, got {self.points}")
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


def _exact_curve(model: SystemModel, grid: np.ndarray, c: float, tau: float, phi0) -> np.ndarray:
    """sum_j |d_j c_j1(eps0)|^2, capped at 1, at every eps0 of the grid, d = V^dag phi0.

    Per chunk of grid points, (c s_j)^2 @ |d_S|^2 over the support S of d,
    so memory stays bounded for any grid size; the phase is refused on all N
    levels first.  phi0 must be normalized and N-dim.
    """
    energies, d = model.spectrum.overlaps(require_normalized(phi0))
    require_finite_block_phase(energies, float(np.abs(grid).max()), c, tau)
    support = np.flatnonzero(d)
    curve = np.empty(grid.size)
    chunk = max(CHUNK_AMPLITUDES // support.size, 1)
    for lo in range(0, grid.size, chunk):
        _, _, s = _block_sine(energies[support], grid[lo : lo + chunk, None], c, tau)
        curve[lo : lo + chunk] = (c * s) ** 2 @ np.abs(d[support]) ** 2
    return np.minimum(curve, 1.0)


def _estimate(p_exact: float, shots: int, rng) -> tuple[float, float]:
    """One binomial draw of shots trials at p_exact: the estimate and its standard error."""
    hits = int(rng.binomial(shots, p_exact))
    p_hat = hits / shots
    return p_hat, sqrt(p_hat * (1.0 - p_hat) / shots)


def scan(model: SystemModel, sweep_config: SweepConfig, phi0) -> SweepResult:
    """Evaluate the probability curve on the grid and locate its peak.

    The exact curve is one _exact_curve call; with shots, point i is then
    estimated from its own stream SeedSequence(seed, spawn_key=(i,)).  The
    peak is the grid argmax; ties break toward the lower eps0 (first
    maximum on the ascending grid).  FlatCurve is raised when the curve's
    range is below twice the median standard error (with a small absolute
    floor so exact flat curves also trip it).
    """
    grid = np.linspace(sweep_config.eps_min, sweep_config.eps_max, sweep_config.points)
    probs = _exact_curve(model, grid, sweep_config.coupling, sweep_config.tau, phi0)
    errs = np.zeros(sweep_config.points)
    noise = FLAT_CURVE_FLOOR  # an exact curve's stderr is all zero
    if sweep_config.shots:
        for i, p_exact in enumerate(probs.tolist()):
            seeds = np.random.SeedSequence(sweep_config.seed, spawn_key=(i,))
            probs[i], errs[i] = _estimate(p_exact, sweep_config.shots, np.random.default_rng(seeds))
        noise = max(2.0 * float(np.median(errs)), noise)
    spread = float(probs.max() - probs.min())
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
    row = f"%.12g,%.12g,%.12g,{result.shots}\n"
    columns = (result.grid, result.probabilities, result.stderr)
    parts = ["epsilon0,probability,stderr,shots\n"]
    for lo in range(0, result.grid.size, CSV_CHUNK_ROWS):
        # one %-format over Python floats, the text f"{x:.12g}" gives, for every row of a chunk
        cells = np.stack([c[lo : lo + CSV_CHUNK_ROWS] for c in columns], axis=1).ravel().tolist()
        parts.append(row * (len(cells) // 3) % tuple(cells))
    return "".join(parts)
