"""Step propagators and the closed-form block transition amplitudes.

One cooling step evolves the register for tau = pi/(2c), either exactly or
through the first-order split [exp(-iA tau/L) exp(-iB tau/L)]^L, where A
holds the commuting energy terms and B the transverse coupling.  Inside each
invariant 2x2 block the same step has a closed form; analytic_amplitudes
evaluates it and serves as the independent oracle the matrix propagators are
checked against.
"""
from __future__ import annotations

from cmath import exp as cexp
from dataclasses import dataclass
from math import cos, pi, sqrt

import numpy as np

from .hamiltonian import AlgorithmConfig, SystemModel, assemble_hamiltonian, split_parts
from .linalg import DimensionMismatch, propagator, require_hermitian


@dataclass(frozen=True)
class BlockAmplitudes:
    """Closed-form end-of-step amplitudes for the block {|00 chi_j>, |11 chi_j>}.

    Starting from |00 chi_j> on the resonance eps0 = E_1 + 1, the step leaves
    c_j0 on |00 chi_j> and moves c_j1 onto |11 chi_j>.  delta_j is the gap
    E_j - E_1, kappa_j the sum E_1 + E_j + 1, alpha the ground-branch phase
    (2 E_1 + 1) pi / (4c).  For delta_j = 0 the transfer is complete and
    c_j1 equals c1 = exp(-i (alpha + pi/2)).  c_j1_abs_sq restates |c_j1|^2
    through a separate cosine form and is kept as a consistency handle.
    """

    j: int
    delta_j: float
    kappa_j: float
    alpha: float
    c1: complex
    c_j0: complex
    c_j1: complex
    c_j1_abs_sq: float


def analytic_amplitudes(e1: float, ej: float, c: float, j: int = 0) -> BlockAmplitudes:
    """Amplitudes after tau = pi/(2c), on resonance, for the level-j block.

    Equivalent to the first column of exp(-i H_j tau) with
    H_j = [[1/2 + e1, c], [c, 1/2 + ej]], with the principal square root
    s = sqrt(4c^2 + delta^2) fixing every phase.
    """
    if c <= 0:
        raise ValueError(f"coupling must be positive, got {c}")
    delta = ej - e1
    s = sqrt(4.0 * c * c + delta * delta)
    kappa = e1 + ej + 1.0
    alpha = (2.0 * e1 + 1.0) * pi / (4.0 * c)
    c1 = cexp(-1j * (alpha + pi / 2.0))
    swing = cexp(1j * pi * s / (2.0 * c))
    front = cexp(-1j * pi * (kappa + s) / (4.0 * c))
    c_j0 = ((0.5 - delta / (2.0 * s)) + (0.5 + delta / (2.0 * s)) * swing) * front
    c_j1 = (c / s) * front * (1.0 - swing)
    abs_sq = (c * c) / (s * s) * (2.0 - 2.0 * cos(pi * s / (2.0 * c)))
    return BlockAmplitudes(
        j=j,
        delta_j=float(delta),
        kappa_j=float(kappa),
        alpha=float(alpha),
        c1=complex(c1),
        c_j0=complex(c_j0),
        c_j1=complex(c_j1),
        c_j1_abs_sq=float(abs_sq),
    )


def trotter_propagator(part_a: np.ndarray, part_b: np.ndarray, tau: float, l: int) -> np.ndarray:
    """First-order split [exp(-i A tau/l) exp(-i B tau/l)]^l."""
    if l < 1:
        raise ValueError(f"step count must be >= 1, got {l}")
    a = require_hermitian(part_a)
    b = require_hermitian(part_b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"split parts differ in shape: {a.shape} vs {b.shape}")
    step = propagator(a, tau / l) @ propagator(b, tau / l)
    return np.linalg.matrix_power(step, l)


def step_propagator(model: SystemModel, config: AlgorithmConfig) -> np.ndarray:
    """One-iteration register propagator; trotter_steps = 0 selects exact."""
    if config.trotter_steps == 0:
        h_full = assemble_hamiltonian(model.h_s, config.epsilon0, config.coupling)
        return propagator(h_full, config.tau)
    part_a, part_b = split_parts(model, config)
    return trotter_propagator(part_a, part_b, config.tau, config.trotter_steps)
