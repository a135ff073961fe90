"""The system model, its size cap and matrix-file format, the built-in
Hamiltonians, the exact-diagonalization ground truth, and the AKLT
valence-bond ground state, which needs no diagonalization.

The AKLT chain puts each spin-1 site on two qubits via S = s_a + s_b.  Qubit
order is [left spin-1/2, pair 1, ..., pair n_bulk, right spin-1/2] with the
left spin most significant.  The chain is SU(2)-invariant, so its terms are
qubit swaps alone: s_i.s_j = P_ij/2 - 1/4, where P_ij permutes basis states.
Its spectrum is solved in the pair basis {00, T0, S, 11} of every spin-1
site (T0, S = (01 +- 10)/sqrt 2).  Every term commutes with each in-pair
swap, and s_a + s_b annihilates the singlet S, so H_S splits along exact
zeros into 3^(n+1) blocks: which pairs hold a singlet, and S_z.  The three
local terms (two boundaries on 8 states, one bulk bond on 16) are taken
into that basis once, at import, in integer arithmetic, and placed on the
chain by index arithmetic; linalg.solve_entries solves the blocks and
carries the per-pair rotation.  The dense qubit-basis H_S is formed only
when model.h_s is read: it is the oracle the checks compare with.
"""
from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .hamiltonian import write_atomic
from .linalg import (
    DimensionMismatch,
    EigenSystem,
    hermitian_eig,
    require_hermitian,
    solve_entries,
)

DEGENERACY_ATOL = 1e-9
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


class SystemModel:
    """A system is its Hamiltonian H_S, Hermitian and 2^n x 2^n with n >= 1.

    A model built from a matrix reads dimension off h_s.  The size cap runs
    on its shape before h_s is converted or copied, and the 2^n rule is
    checked here only.  spectrum is computed on first read and kept, so
    every reader of one model (ground truth, a0, the step, the sweep curve)
    shares one decomposition, and building one solves nothing; here it is
    hermitian_eig(h_s).  build_aklt's chains override both: spectrum is
    solved in the pair basis, and the dense h_s is formed only when read,
    never by repr, == or hash, which go by label and by identity.
    """

    def __init__(self, h_s: np.ndarray, label: str = ""):
        require_register_fits(max(np.shape(h_s), default=0))
        h = require_hermitian(h_s)
        if h.shape[0] < 2 or h.shape[0] & (h.shape[0] - 1):
            raise DimensionMismatch(
                f"{label or 'h_s'} is {h.shape[0]}-dimensional, not 2^n with n >= 1"
            )
        self.h_s = h
        self.label = label
        self.dimension = h.shape[0]

    @cached_property
    def spectrum(self) -> EigenSystem:
        return hermitian_eig(self.h_s)

    @property
    def n_qubits(self) -> int:
        return self.dimension.bit_length() - 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


def _swap(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Swap of qubits i and j as a basis permutation, qubit 0 most significant.

    Entry x is x with bits i and j exchanged; the swap is its own inverse,
    so its matrix has a one at (x, perm[x]) for every x.
    """
    x = np.arange(2**n_qubits)
    shift_i, shift_j = n_qubits - 1 - i, n_qubits - 1 - j
    flip = ((x >> shift_i) ^ (x >> shift_j)) & 1
    return x ^ (flip << shift_i) ^ (flip << shift_j)


def _swap_matrix(n_qubits: int, i: int, j: int) -> np.ndarray:
    """The swap of qubits i and j as an integer matrix."""
    return np.eye(2**n_qubits, dtype=np.int64)[_swap(n_qubits, i, j)]


def _term(twelve_h: np.ndarray, basis: np.ndarray) -> tuple:
    """(width, rows, cols, values): a local term 12 h in a basis, as COO.

    basis holds the basis vectors as integer columns B, unnormalized, so
    B^T (12 h) B is exact and so are its zeros; each entry is then divided
    by the two column norms sqrt(n_i n_j), n = diag(B^T B).
    """
    term = basis.T @ twelve_h @ basis
    norms = np.diag(basis.T @ basis)
    rows, cols = np.nonzero(term)
    return term.shape[0], rows, cols, term[rows, cols] / np.sqrt(norms[rows] * norms[cols])


# 12 H_S's three local terms, on (end, pair), (pair, end) and (pair, pair):
# 4 (1 + P_e,a + P_e,b) and 2 C + C^2, C the sum of the four cross-pair swaps
_CROSS = sum(_swap_matrix(4, a, b) for a in (0, 1) for b in (2, 3))
_TWELVE_H = (
    4 * (np.eye(8, dtype=np.int64) + _swap_matrix(3, 0, 1) + _swap_matrix(3, 0, 2)),
    4 * (np.eye(8, dtype=np.int64) + _swap_matrix(3, 2, 0) + _swap_matrix(3, 2, 1)),
    2 * _CROSS + _CROSS @ _CROSS,
)
# (00, 01 + 10, 01 - 10, 11) on a spin-1 pair, unnormalized: the triplet
# 00, T0, 11 and the singlet S, which s_a + s_b annihilates
_PAIR = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]])
_EYE2 = np.eye(2, dtype=np.int64)
_PAIR_BASES = (np.kron(_EYE2, _PAIR), np.kron(_PAIR, _EYE2), np.kron(_PAIR, _PAIR))
_QUBIT_TERMS = [_term(t, np.eye(t.shape[0], dtype=np.int64)) for t in _TWELVE_H]
_PAIR_TERMS = [_term(t, basis) for t, basis in zip(_TWELVE_H, _PAIR_BASES)]
_HALF = np.sqrt(0.5)


def _place(n_bulk: int, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO entries of 12 H_S from its local terms (left, right, bulk), by index arithmetic.

    An index reads (e_L, p_1, ..., p_n, e_R) in mixed radix (2, 4, ..., 4, 2),
    left end most significant, in the qubit basis and the pair basis alike.
    A term of width w whose sites have dimension hi to their left and lo to
    their right puts local entry (i, j) at ((h w + i) lo + l, (h w + j) lo + l)
    for every h < hi and l < lo.
    """
    dim = 4 ** (n_bulk + 1)
    left, right, bulk = terms
    placed = [(left, 1), (right, 2 * 4 ** (n_bulk - 1))]
    placed += [(bulk, 2 * 4 ** (k - 1)) for k in range(1, n_bulk)]
    rows, cols, values = [], [], []
    for (width, i, j, v), hi in placed:
        lo = dim // (hi * width)
        outer = np.arange(hi)[:, None, None] * width
        rows.append(((outer + i[:, None]) * lo + np.arange(lo)).ravel())
        cols.append(((outer + j[:, None]) * lo + np.arange(lo)).ravel())
        values.append(np.broadcast_to(v[:, None], (hi, v.size, lo)).ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def _pair_rotation(n_bulk: int) -> Callable[[np.ndarray], np.ndarray]:
    """Q = I (x) q (x) ... (x) q (x) I along the first axis of a copy; q takes 01, 10 to T0, S.

    q is real, symmetric and its own inverse, so the one function takes
    states into the pair basis and back: per pair, from the left,
    (x_01, x_10) -> (x_01 + x_10, x_01 - x_10) / sqrt 2.
    """

    def rotate(x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=complex)
        for k in range(n_bulk):
            pairs = y.reshape(2 * 4**k, 4, -1)
            t0, singlet = pairs[:, 1], pairs[:, 2]
            total = t0 + singlet
            np.subtract(t0, singlet, out=singlet)
            np.multiply(total, _HALF, out=t0)
            singlet *= _HALF
        return y

    return rotate


def _dense_aklt(n_bulk: int) -> np.ndarray:
    """The chain's H_S in the qubit basis: integer weights summed exactly, divided by 12 once."""
    dim = 4 ** (n_bulk + 1)
    rows, cols, twelve = _place(n_bulk, _QUBIT_TERMS)
    return np.bincount(rows * dim + cols, weights=twelve, minlength=dim * dim).reshape(dim, dim) / 12


class _Chain(SystemModel):
    """build_aklt's model: its spectrum is solved in the pair basis, h_s formed only when read."""

    def __init__(self, n_bulk: int):
        self.label = f"aklt{n_bulk}"
        self.n_bulk = n_bulk
        self.dimension = 4 ** (n_bulk + 1)

    @cached_property
    def h_s(self) -> np.ndarray:
        return _dense_aklt(self.n_bulk)

    @cached_property
    def spectrum(self) -> EigenSystem:
        rows, cols, twelve = _place(self.n_bulk, _PAIR_TERMS)
        label = np.arange(self.dimension)
        return solve_entries(label, rows, cols, twelve / 12, _pair_rotation(self.n_bulk))


def build_aklt(n_bulk: int) -> SystemModel:
    """Open AKLT chain: n_bulk spin-1 sites between two spin-1/2 ends.

    Each bulk bond contributes S_k.S_{k+1} + (S_k.S_{k+1})^2/3 + 2/3, twice
    the projector onto combined spin 2; each boundary contributes
    (2/3)(1 + s.S), the projector onto combined spin 3/2.  The chain is a
    sum of projectors, so it is positive semidefinite with ground energy
    exactly zero.  With s_i.s_j = P_ij/2 - 1/4, a boundary on end qubit e
    and pair (a1, a2) is (1 + P_e,a1 + P_e,a2)/3, and a bulk bond is
    (2 sum_p P_p + sum_p,q P_p P_q)/12 over its four cross-pair swaps p, q.
    Nothing N x N is formed until h_s is read.
    """
    if n_bulk < 1:
        raise ValueError(f"need at least one spin-1 site, got {n_bulk}")
    require_register_fits(4 ** (n_bulk + 1))
    return _Chain(n_bulk)


def valence_bond_state(n_bulk: int) -> np.ndarray:
    """Ground state of build_aklt(n_bulk) from its valence bonds, with no diagonalization.

    A singlet (|01> - |10>)/sqrt(2) sits on each qubit pair (2k, 2k+1): (left
    end, a_1), (b_k, a_{k+1}) and (b_n, right end).  1 + SWAP on each spin-1
    pair (a_k, b_k) = (2k-1, 2k) projects it onto spin 1, and the result is
    normalized (Affleck, Kennedy, Lieb and Tasaki, PRL 59, 799 (1987)).
    """
    n_qubits = 2 * n_bulk + 2
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    psi = singlet
    for _ in range(n_bulk):
        psi = np.kron(psi, singlet)
    for k in range(1, n_bulk + 1):
        psi = psi + psi[_swap(n_qubits, 2 * k - 1, 2 * k)]
    return psi / np.linalg.norm(psi)


def build_diagonal(levels) -> SystemModel:
    """Diagonal system with the given spectrum; basis states are eigenstates.

    The label gives each level as %g where that reads back exactly, else as repr.
    """
    vals = [float(x) for x in levels]
    require_register_fits(len(vals))
    texts = [f"{v:g}" if float(f"{v:g}") == v else repr(v) for v in vals]
    return SystemModel(np.diag(vals), label="diag:" + ",".join(texts))


def ground_truth(model: SystemModel) -> tuple[float, np.ndarray, np.ndarray]:
    """Lowest eigenvalue, its eigenvector, and every gap E_j - E_1, from model.spectrum.

    The ground levels are every E_j - E_1 <= DEGENERACY_ATOL, taken out of
    the eigenbasis by spectrum.combine as complex128 vectors.  A degenerate
    ground space comes back as an N x g column basis, in block order,
    instead of a flat vector; callers can spot that case by ndim.
    """
    es = model.spectrum
    e1 = float(es.eigenvalues[0])
    ground = np.flatnonzero(es.energies - e1 <= DEGENERACY_ATOL)
    one_hot = np.zeros((es.energies.size, ground.size))
    one_hot[ground, np.arange(ground.size)] = 1.0
    basis = es.combine(one_hot)
    return e1, (basis if ground.size > 1 else basis[:, 0]), es.eigenvalues - e1


def from_registry(name: str) -> SystemModel:
    """Resolve "aklt<N>", "diag:<e1,e2,...>" or "file:<path>" to a model."""
    if name.startswith("aklt"):
        digits = name[4:]
        # int() alone also takes signs, blanks, underscores and leading zeros
        if not digits.isdecimal() or name != f"aklt{int(digits)}":
            raise ValueError(f"bad chain length in model name {name!r}")
        return build_aklt(int(digits))
    if name.startswith("diag:"):
        try:
            levels = [float(tok) for tok in name[5:].split(",")]
        except ValueError as exc:
            raise ValueError(f"bad level list in model name {name!r}") from exc
        return build_diagonal(levels)
    if name.startswith("file:"):
        return SystemModel(load_matrix_file(name[5:]), label=name)
    raise ValueError(f"unknown model name {name!r}")


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
