"""The register layout, the run configuration and the atomic writer.

The register is (probe ancilla) x (tag ancilla) x (n system qubits) with the
probe most significant: basis index a1*2^(n+1) + a2*2^n + s.  The assembled
operator is

    H = -1/2 sz (x) I  +  I (x) H_R  +  c sx (x) sx (x) I_N,
    H_R = eps0 |0><0| (x) I_N  +  |1><1| (x) H_S.

Over the ancilla states 00, 01, 10, 11 its N x N diagonal blocks are
(eps0 - 1/2) I, H_S - 1/2 I, (eps0 + 1/2) I, H_S + 1/2 I and its anti-diagonal
ones c I, in the dtype of H_S and in one array.  On span{|00 chi_j>, |11 chi_j>}
it decouples into 2x2 blocks [[eps0 - 1/2, c], [c, 1/2 + E_j]]; cooling runs sit
on the resonance eps0 = E_1 + 1, where the j = 1 block has equal diagonal
entries.  No run path builds the register: evolution.step_propagator takes
those blocks' amplitudes on the model's spectrum, and assemble_hamiltonian and
split_parts serve only the dense oracle that verify and the tests compare it
with, which takes one numpy eigh of the whole register (linalg.propagator).
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from math import copysign, inf, isfinite, pi

import numpy as np

from .linalg import require_hermitian

# Most excited outcomes a run collects, refused before any is formed: each
# takes ~100 KB on aklt4 from a dense init, which peaked at 90 MB RSS at 500.
ITERATIONS_CAP = 500


@dataclass
class AlgorithmConfig:
    """Cooling-run parameters.

    tau defaults to pi/(2*coupling), the half period of the resonant
    transfer.  trotter_steps = 0 selects the exact propagator.
    max_iterations counts the consecutive excited outcomes the run must
    collect; restart_cap bounds how many failed attempts a stochastic run
    may discard before giving up.
    """

    epsilon0: float
    coupling: float
    tau: float | None = None
    trotter_steps: int = 0
    max_iterations: int = 1
    seed: int = 0
    mode: str = "post-selected"
    restart_cap: int = 1000

    def __post_init__(self):
        # Each condition is written so that NaN fails it.
        if not isfinite(self.epsilon0):
            raise ValueError(f"epsilon0 must be finite, got {self.epsilon0}")
        if not 0 < self.coupling < inf:
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")
        if self.tau is None:
            self.tau = pi / (2.0 * self.coupling)
        if not 0 < self.tau < inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.trotter_steps < 0:
            raise ValueError("trotter_steps must be >= 0")
        if not 0 <= self.max_iterations <= ITERATIONS_CAP:
            raise ValueError(f"need 0 to {ITERATIONS_CAP} iterations, got {self.max_iterations}")
        if self.restart_cap < 0:
            raise ValueError("restart_cap must be >= 0")
        if self.mode not in ("stochastic", "post-selected"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _register_parts(
    h_s, epsilon0: float, coupling: float, apart: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Energy terms (diagonal blocks) and coupling (anti-diagonal); one array twice unless apart."""
    n_dim = h_s.shape[0]
    part_a = np.zeros((4 * n_dim, 4 * n_dim), dtype=h_s.dtype)
    part_b = np.zeros(part_a.shape, dtype=h_s.dtype) if apart else part_a
    # each block in place, bit for bit as x * I and h_s -+ I/2 would give it
    at = [slice(k * n_dim, (k + 1) * n_dim) for k in range(4)]
    part_a[at[1], at[1]] = h_s
    np.add(h_s, 0.0, out=part_a[at[3], at[3]])  # + I/2 adds 0.0 off the diagonal: -0.0 -> 0.0
    scalars = [(part_a, 0, 0, epsilon0 - 0.5), (part_a, 2, 2, epsilon0 + 0.5)]
    for part, i, j, x in scalars + [(part_b, k, 3 - k, coupling) for k in range(4)]:
        if (off := x * 0.0) != 0.0 or copysign(1.0, off) < 0:  # x * I: -0.0 off the diagonal
            part[at[i], at[j]] = off
        np.fill_diagonal(part[at[i], at[j]], x)
    diagonal = part_a.reshape(-1)[:: 4 * n_dim + 1]
    diagonal[at[1]] -= 0.5
    diagonal[at[3]] += 0.5
    return part_a, part_b


def assemble_hamiltonian(h_s: np.ndarray, epsilon0: float, coupling: float) -> np.ndarray:
    """Full register Hamiltonian from raw pieces, in one 4N x 4N array; coupling may be zero."""
    return _register_parts(require_hermitian(h_s), epsilon0, coupling, apart=False)[0]


def split_parts(h_s: np.ndarray, epsilon0: float, coupling: float) -> tuple[np.ndarray, np.ndarray]:
    """The Trotter split part_a + part_b = assemble_hamiltonian(h_s, epsilon0, coupling).

    part_a collects the two commuting energy terms, part_b the transverse coupling.
    """
    return _register_parts(require_hermitian(h_s), epsilon0, coupling)


def write_atomic(path: str, body: str) -> None:
    """Write ASCII text through a temporary file, so path is never left partial.

    The file gets open()'s mode, 0o666 less the umask; mkstemp's would be 0o600.
    An OSError is raised again naming path, not the temporary file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(body)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
