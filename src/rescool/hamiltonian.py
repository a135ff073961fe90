"""The register layout, run configuration, file I/O.

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
from functools import cached_property
from math import copysign, inf, isfinite, pi

import numpy as np

from .linalg import DimensionMismatch, EigenSystem, hermitian_eig, require_hermitian

# Largest 4N the dense register oracle may build, so N <= 1024.  A run builds
# no register.  A matrix model's largest array is H_S, 8 MiB in float64 at the
# cap; an AKLT run forms no N x N array (aklt4's eigenvector blocks take 0.16 MiB).
REGISTER_CAP = 2**12


class SizeCap(ValueError):
    """The 4N-dimensional register would exceed REGISTER_CAP."""


def require_register_fits(n_dim: int) -> None:
    """Refuse an N-dimensional system before anything of its size is allocated."""
    if 4 * n_dim > REGISTER_CAP:
        raise SizeCap(f"register dimension {4 * n_dim} exceeds the cap {REGISTER_CAP}")


@dataclass(frozen=True, eq=False)
class SystemModel:
    """A system is its Hamiltonian H_S, Hermitian and 2^n x 2^n with n >= 1.

    A model built from a matrix reads dimension and n_qubits off h_s.  The
    size cap runs on its shape before h_s is converted or copied, and the
    2^n rule is checked here only.  spectrum is computed on first read and
    kept, so every reader of one model (ground truth, a0, the step, the
    sweep curve) shares one decomposition, and building one solves nothing;
    here it is hermitian_eig(h_s).  models.build_aklt's chains override all
    three: spectrum is solved in the pair basis, and the dense h_s is formed
    only when read, never by == or hash, which go by identity.
    """

    h_s: np.ndarray
    label: str = ""

    def __post_init__(self):
        require_register_fits(max(np.shape(self.h_s), default=0))
        h = require_hermitian(self.h_s)
        if h.shape[0] < 2 or h.shape[0] & (h.shape[0] - 1):
            raise DimensionMismatch(
                f"{self.label or 'h_s'} is {h.shape[0]}-dimensional, not 2^n with n >= 1"
            )
        object.__setattr__(self, "h_s", h)

    @cached_property
    def spectrum(self) -> EigenSystem:
        return hermitian_eig(self.h_s)

    @property
    def dimension(self) -> int:
        return self.h_s.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dimension.bit_length() - 1


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
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
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


def load_matrix_file(path: str) -> np.ndarray:
    """Read a matrix file: header "dim N", then N rows of N "re,im" tokens.

    The register cap is checked on N before any row is read.
    """
    with open(path, encoding="ascii") as fh:
        rows = (ln.strip() for ln in fh if ln.strip())
        header = next(rows, "")
        if not header.startswith("dim "):
            raise ValueError(f"{path}: missing 'dim N' header")
        try:
            n_dim = int(header.split()[1])
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{path}: bad dimension header {header!r}") from exc
        require_register_fits(n_dim)
        lines = list(rows)
    if len(lines) != n_dim:
        raise ValueError(f"{path}: expected {n_dim} rows, found {len(lines)}")
    out = np.zeros((n_dim, n_dim), dtype=complex)
    for i, ln in enumerate(lines):
        tokens = ln.split()
        if len(tokens) != n_dim:
            raise ValueError(f"{path}: row {i} has {len(tokens)} entries, expected {n_dim}")
        for j, tok in enumerate(tokens):
            try:
                re_s, im_s = tok.split(",")
                out[i, j] = complex(float(re_s), float(im_s))
            except ValueError as exc:
                raise ValueError(f"{path}: bad entry {tok!r} at row {i}, col {j}") from exc
    return out


def save_matrix_file(path: str, matrix: np.ndarray) -> None:
    """Write a matrix in the load_matrix_file format."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix file needs a square matrix, got {m.shape}")
    rows = [f"dim {m.shape[0]}"]
    for i in range(m.shape[0]):
        rows.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in m[i]))
    write_atomic(path, "\n".join(rows) + "\n")


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
