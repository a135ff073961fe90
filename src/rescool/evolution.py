"""Cooling steps and the closed-form block transition amplitudes.

One cooling step evolves the register for tau = pi/(2c), either exactly or
through the first-order split [exp(-iA tau/L) exp(-iB tau/L)]^L, where A
holds the commuting energy terms and B the transverse coupling; the exact
step is applied to the state, never formed as a matrix.  Inside each
invariant 2x2 block the same step has a closed form; block_amplitudes
evaluates it and serves as the independent oracle the register steps are
checked against.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .hamiltonian import AlgorithmConfig, SystemModel, assemble_hamiltonian, split_parts
from .linalg import DimensionMismatch, power_of_product, propagator, propagator_action


def block_amplitudes(energies, epsilon0, c, tau) -> tuple[np.ndarray, np.ndarray]:
    """First column (c_j0, c_j1) of exp(-i H_j tau) for every level E_j at once.

    H_j = [[eps0 - 1/2, c], [c, 1/2 + E_j]] is the block on
    {|00 chi_j>, |11 chi_j>}; starting from |00 chi_j>, the evolution leaves
    c_j0 there and moves c_j1 onto |11 chi_j>.  Writing H_j = mu + h Z + c X
    with Omega = hypot(c, h), sin(Omega tau)/Omega = tau sinc(Omega tau/pi)
    stays finite at Omega = 0, so any eps0, c and tau need no special case;
    hypot keeps Omega finite where c*c would overflow.
    The arguments broadcast against each other like numpy operands.
    """
    e = np.asarray(energies, dtype=float)
    mu = (epsilon0 + e) / 2.0
    h = (epsilon0 - 1.0 - e) / 2.0
    omega = np.hypot(c, h)
    s = tau * np.sinc(omega * tau / np.pi)
    phase = np.exp(-1j * mu * tau)
    return phase * (np.cos(omega * tau) - 1j * h * s), -1j * c * s * phase


def trotter_propagator(part_a: np.ndarray, part_b: np.ndarray, tau: float, l: int) -> np.ndarray:
    """First-order split [exp(-i A tau/l) exp(-i B tau/l)]^l.

    propagator checks each part for Hermiticity; only the shapes are
    compared here.  The product and its l-th power are formed block by block
    on the components both factors share (linalg.power_of_product), so the
    entries between the register's blocks stay exactly zero.
    """
    if l < 1:
        raise ValueError(f"step count must be >= 1, got {l}")
    if np.shape(part_a) != np.shape(part_b):
        raise DimensionMismatch(
            f"split parts differ in shape: {np.shape(part_a)} vs {np.shape(part_b)}"
        )
    return power_of_product(propagator(part_a, tau / l), propagator(part_b, tau / l), l)


def step_propagator(model: SystemModel, config: AlgorithmConfig) -> Callable:
    """One iteration as the map phi -> U|00 phi> on the 4N register; trotter_steps = 0 is exact."""
    if config.trotter_steps == 0:
        h_full = assemble_hamiltonian(model.h_s, config.epsilon0, config.coupling)
        return propagator_action(h_full, config.tau, model.dimension)
    part_a, part_b = split_parts(model, config)
    u = trotter_propagator(part_a, part_b, config.tau, config.trotter_steps)
    return lambda phi: u[:, : phi.size] @ phi
