"""The cooling step and the closed-form block transition amplitudes.

step_propagator evolves |00>|phi> for tau, exactly or through the first-order
split [exp(-iA tau/L) exp(-iB tau/L)]^L (A the commuting energy terms, B the
transverse coupling), and reads the probe.  It is the only run-path code that
builds or reads the 4N register; sweep, cooling and the checks see only its
branches, and its exact step is applied to the state, never formed.  Inside
each invariant 2x2 block the same step has a closed form; block_amplitudes
evaluates it and is the oracle the register step is checked against.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .hamiltonian import assemble_hamiltonian, split_parts
from .linalg import (
    DimensionMismatch,
    power_of_product,
    propagator,
    propagator_action,
    require_normalized,
)


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


def step_propagator(h_s, epsilon0, coupling, tau, trotter_steps: int = 0) -> Callable:
    """One step as phi -> (p_excited, ground, excited); trotter_steps = 0 is exact.

    It takes block_amplitudes' arguments, any c >= 0 and tau >= 0.  p_excited
    (capped at 1) is the probe-excited weight; ground and excited are the
    unnormalized |00> and |11> system slices.  phi must be normalized and
    N-dim; the evolved register must stay normalized, a unitarity check.
    """
    n_dim = np.shape(h_s)[0]
    if trotter_steps == 0:
        evolve = propagator_action(assemble_hamiltonian(h_s, epsilon0, coupling), tau, n_dim)
    else:
        u = trotter_propagator(*split_parts(h_s, epsilon0, coupling), tau, trotter_steps)
        evolve = u[:, :n_dim].__matmul__

    def step(phi) -> tuple[float, np.ndarray, np.ndarray]:
        vec = require_normalized(phi)
        if vec.size != n_dim:
            raise DimensionMismatch(f"state is {vec.size}-dim, step is {n_dim}-dim")
        evolved = require_normalized(evolve(vec))
        p_excited = min(float(np.sum(np.abs(evolved[2 * n_dim :]) ** 2)), 1.0)
        return p_excited, evolved[:n_dim], evolved[3 * n_dim :]

    return step
