"""The cooling step, from the closed-form amplitudes of each level's 2x2 block.

In the eigenbasis of H_S the register Hamiltonian decouples into one block
[[eps0 - 1/2, c], [c, 1/2 + E_j]] per level on {|00 chi_j>, |11 chi_j>}, so
evolving |00>|phi> for tau moves each overlap d_j = <chi_j|phi> into
d_j c_j0 on |00 chi_j> and d_j c_j1 on |11 chi_j>.  block_amplitudes gives
(c_j0, c_j1) exactly and trotter_amplitudes through the first-order split
[exp(-iA tau/L) exp(-iB tau/L)]^L (A the commuting energy terms, B the
transverse coupling), both as one closed-form SU(2) rotation per level.
step_propagator returns a step as that pair on the levels it is asked for,
once every level's phase is refused and each formed one keeps its weight;
the step maps overlaps to overlaps and never leaves the eigenbasis.
Cooling and the checks take every step from it; none builds the 4N register.
trotter_propagator forms the split on the whole register, one dense
matrix_power of two linalg.propagator factors, as the oracle the per-level
split is checked against.
"""
from __future__ import annotations

from operator import index

import numpy as np

from .linalg import (
    NORM_ATOL,
    DimensionMismatch,
    NotNormalized,
    propagator,
    require_finite_block_phase,
)


def _block_sine(energies, epsilon0, c, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """block_amplitudes' h, Omega tau/pi and s = tau sinc(Omega tau/pi); |c_j1| = c |s|."""
    h = (epsilon0 - 1.0 - np.asarray(energies, dtype=float)) / 2.0
    turns = np.hypot(c, h) * tau / np.pi
    return h, turns, tau * np.sinc(turns)


def _column(angle, cos, z, x) -> tuple[np.ndarray, np.ndarray]:
    """e^{-i angle} (cos - i z, -i x): the first column (c_j0, c_j1) of a level's rotation."""
    phase = np.exp(-1j * angle)
    return phase * (cos - 1j * z), -1j * x * phase


def _reduced_times(angle, l):
    """l * angle, less a multiple of 2 pi, for |angle| < 2 pi: finite for every l <= 1e308."""
    return 4.0 * np.fmod(angle * (l / 4.0), np.pi / 2.0)


def block_amplitudes(energies, epsilon0, c, tau) -> tuple[np.ndarray, np.ndarray]:
    """First column (c_j0, c_j1) of exp(-i H_j tau) for every level E_j at once.

    H_j = [[eps0 - 1/2, c], [c, 1/2 + E_j]] is the block on
    {|00 chi_j>, |11 chi_j>}; starting from |00 chi_j>, the evolution leaves
    c_j0 there and moves c_j1 onto |11 chi_j>.  Writing H_j = mu + h Z + c X
    with Omega = hypot(c, h), sin(Omega tau)/Omega = tau sinc(Omega tau/pi)
    stays finite at Omega = 0, so any eps0, c and tau need no special case;
    hypot keeps Omega finite where c*c would overflow.  The cosine takes the
    angle pi * (Omega tau/pi) that sinc rounds to, so |c_j0|^2 + |c_j1|^2 = 1
    to rounding however large Omega tau grows; at Omega tau ~ 1e8 the two
    roundings of the angle alone differ by about 1e-8.
    The arguments broadcast against each other like numpy operands.
    """
    h, turns, s = _block_sine(energies, epsilon0, c, tau)
    mu = (epsilon0 + np.asarray(energies, dtype=float)) / 2.0
    return _column(mu * tau, np.cos(np.pi * turns), h * s, c * s)


def trotter_amplitudes(energies, epsilon0, c, tau, l: int) -> tuple[np.ndarray, np.ndarray]:
    """First column (c_j0, c_j1) of each level's split step, the Trotter block_amplitudes.

    With dt = tau/l, d = (eps0 - 1 - E_j) dt/2, g = c dt and mu = (eps0 + E_j)/2, a
    level's slice diag(e^{-i(eps0-1/2)dt}, e^{-i(1/2+E_j)dt}) exp(-i c X dt) is
    e^{-i mu dt} V, V in SU(2) with trace 2 cos(phi), so [slice]^l = e^{-i mu tau}
    (cos(l phi) I + sin(l phi)/sin(phi) (V - cos(phi) I)).  sin(phi) = hypot(sin d,
    sin g cos d) keeps its precision at V = -I, and _reduced_times reduces l phi and
    l mu dt, so the column is normalized to rounding for every whole l.
    """
    if not 1 <= index(l) <= 1e308:  # a whole count, which tau / l takes as a float
        raise ValueError(f"the split takes 1 to 1e308 Trotter steps, got {l}")
    e = np.asarray(energies, dtype=float).reshape(-1)
    dt = tau / l
    require_finite_block_phase(e, epsilon0, c, dt)
    d = (epsilon0 - 1.0 - e) * dt / 2.0
    sin_d, cos_d, sin_g, cos_g = np.sin(d), np.cos(d), np.sin(c * dt), np.cos(c * dt)
    sin_phi = np.hypot(sin_d, sin_g * cos_d)
    l_phi = _reduced_times(np.arctan2(sin_phi, cos_d * cos_g), l)
    r = np.divide(np.sin(l_phi), sin_phi, out=np.full_like(sin_phi, float(l)), where=sin_phi > 0)
    angle = _reduced_times(np.fmod((epsilon0 + e) / 2.0 * dt, 2.0 * np.pi), l)
    return _column(angle, np.cos(l_phi), r * sin_d * cos_g, r * sin_g * np.exp(1j * d))


def trotter_propagator(part_a, part_b, tau: float, l: int) -> np.ndarray:
    """The split U = [exp(-i A tau/l) exp(-i B tau/l)]^l of the whole register: the dense oracle.

    No run path calls it.  Each factor is linalg.propagator, one numpy eigh
    of the whole part, so the oracle shares no code with trotter_amplitudes
    and the run path it checks.
    """
    if not 1 <= l <= 1e308:  # tau / l takes l as a float
        raise ValueError(f"the split takes 1 to 1e308 Trotter steps, got {l}")
    if np.shape(part_a) != np.shape(part_b):
        raise DimensionMismatch(
            f"split parts differ in shape: {np.shape(part_a)} vs {np.shape(part_b)}"
        )
    factor = propagator(part_a, tau / l) @ propagator(part_b, tau / l)
    return np.linalg.matrix_power(factor, l)


def step_propagator(energies, epsilon0, coupling, tau, trotter_steps: int = 0, levels=slice(None)):
    """One step's first columns (c_0, c_1) on energies[levels]; 0 Trotter steps is exact.

    One complex entry per level formed: from block_amplitudes, or
    trotter_amplitudes at trotter_steps slices.  A step multiplies each
    overlap d_j by c_j0 onto |00 chi_j> and by c_j1 onto |11 chi_j>; a run
    forms the levels phi0 touches, once every level's phase over one slice
    is refused (a count the split refuses fails there).  It takes
    block_amplitudes' arguments, any c >= 0 and tau >= 0.  NotNormalized
    unless every level formed keeps |c_j0|^2 + |c_j1|^2 = 1 within NORM_ATOL,
    so a gain on one level cannot hide behind a loss on another.
    """
    one_slice = tau / max(min(trotter_steps, 1e308), 1)
    require_finite_block_phase(energies, epsilon0, coupling, one_slice)
    formed = np.asarray(energies)[levels]
    if trotter_steps == 0:
        c_0, c_1 = block_amplitudes(formed, epsilon0, coupling, tau)
    else:
        c_0, c_1 = trotter_amplitudes(formed, epsilon0, coupling, tau, trotter_steps)
    dev = float(np.max(np.abs(1.0 - np.abs(c_0) ** 2 - np.abs(c_1) ** 2), initial=0.0))
    if not dev <= NORM_ATOL:  # written so that a NaN deviation fails the check
        raise NotNormalized(f"max_j |1 - |c_j0|^2 - |c_j1|^2| = {dev:.3e} exceeds {NORM_ATOL:.1e}")
    return c_0, c_1
