"""The cooling step and the closed-form block transition amplitudes.

step_propagator evolves |00>|phi> for tau, exactly or through the first-order
split [exp(-iA tau/L) exp(-iB tau/L)]^L (A the commuting energy terms, B the
transverse coupling), and reads the probe.  It is the only run-path code that
builds or reads the 4N register; sweep, cooling and the checks see only its
branches.  The exact step is applied, never formed; the Trotter step forms
only its |00> columns.  Inside each invariant 2x2 block the same step has a
closed form; block_amplitudes evaluates it and is the oracle the register
step is checked against.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .hamiltonian import assemble_hamiltonian, split_parts
from .linalg import (
    DimensionMismatch,
    NotNormalized,
    hermitian_eig,
    joint_blocks,
    propagator_action,
    require_finite_phase,
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


def trotter_propagator(part_a, part_b, tau: float, l: int, n: int | None = None) -> np.ndarray:
    """Columns U[:, :n] (n = None: all) of the split U = [exp(-i A tau/l) exp(-i B tau/l)]^l.

    Both factors, so U too, are block-diagonal on linalg.joint_blocks of the
    parts' partitions.  Blocks with no index below n are skipped; the others
    get their factors from the eigenblocks V_b exp(-i E_b tau/l) V_b^dag, one
    batched matrix_power per block size, and their columns below n, so
    nothing 4N x 4N is formed.  An overflowing power raises NotNormalized.
    """
    if not 1 <= l <= 1e308:  # tau / l takes l as a float
        raise ValueError(f"the split takes 1 to 1e308 Trotter steps, got {l}")
    if np.shape(part_a) != np.shape(part_b):
        raise DimensionMismatch(
            f"split parts differ in shape: {np.shape(part_a)} vs {np.shape(part_b)}"
        )
    dim = np.shape(part_a)[0]
    n = dim if n is None else n
    factors = [hermitian_eig(part_a), hermitian_eig(part_b)]
    for es in factors:
        require_finite_phase(es.eigenvalues, tau / l)
    live = [idx[: np.searchsorted(idx[:, 0], n)] for idx in joint_blocks(*factors)]
    # flat[f]: the live factor stacks in a row; i's row starts at base[i], place[i] is its column
    offsets = np.cumsum([0] + [idx.size * idx.shape[1] for idx in live])
    base, place = np.full((2, dim), -1)
    for idx, offset in zip(live, offsets):
        base[idx] = offset + idx.shape[1] * np.arange(idx.size).reshape(idx.shape)
        place[idx] = np.arange(idx.shape[1])
    flat = np.zeros((2, offsets[-1]), dtype=complex)
    for f, es in enumerate(factors):
        for rows, energies, vecs in es.blocks:
            keep = base[rows[:, 0]] >= 0
            rows, vecs = rows[keep], vecs[keep]
            phases = np.exp(-1j * energies[keep] * (tau / l))
            ub = (vecs * phases[:, None, :]) @ vecs.conj().swapaxes(1, 2)
            flat[f, base[rows][:, :, None] + place[rows][:, None, :]] = ub
    out = np.zeros((dim, n), dtype=complex)
    for idx, start, end in zip(live, offsets, offsets[1:]):
        u_a, u_b = flat[:, start:end].reshape(2, *idx.shape, idx.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.linalg.matrix_power(u_a @ u_b, l)
        g, p, q = np.nonzero(np.broadcast_to(idx[:, None, :] < n, power.shape))
        out[idx[g, p], idx[g, q]] = power[g, p, q]
    if not np.isfinite(out).all():
        raise NotNormalized(f"the split step overflows at {l} Trotter steps; use fewer")
    return out


def step_propagator(h_s, epsilon0, coupling, tau, trotter_steps: int = 0) -> Callable:
    """One step as phi -> (p_excited, ground, excited); trotter_steps = 0 is exact.

    It takes block_amplitudes' arguments, any c >= 0 and tau >= 0.  p_excited
    (capped at 1) is the probe-excited weight; ground and excited are the
    unnormalized |00> and |11> system slices.  phi must be normalized and
    N-dim; the evolved register must stay normalized, a unitarity check that
    names any Trotter step count.
    """
    n_dim = np.shape(h_s)[0]
    drift = ""
    if trotter_steps == 0:
        evolve = propagator_action(assemble_hamiltonian(h_s, epsilon0, coupling), tau, n_dim)
    else:
        parts = split_parts(h_s, epsilon0, coupling)
        evolve = trotter_propagator(*parts, tau, trotter_steps, n_dim).__matmul__
        drift = f" at {trotter_steps} Trotter steps, whose rounding grows with their count"

    def step(phi) -> tuple[float, np.ndarray, np.ndarray]:
        vec = require_normalized(phi)
        if vec.size != n_dim:
            raise DimensionMismatch(f"state is {vec.size}-dim, step is {n_dim}-dim")
        evolved = require_normalized(evolve(vec), drift)
        p_excited = min(float(np.sum(np.abs(evolved[2 * n_dim :]) ** 2)), 1.0)
        return p_excited, evolved[:n_dim], evolved[3 * n_dim :]

    return step
