"""Built-in system Hamiltonians and the exact-diagonalization ground truth.

The AKLT chain puts each spin-1 site on two qubits via S = s_a + s_b; every
term commutes with the in-pair swap, so the antisymmetric (singlet) sector
decouples and the triplet sector carries the spin-1 physics.  Qubit order is
[left spin-1/2, pair 1, ..., pair n_bulk, right spin-1/2] with the left
spin most significant.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import SystemModel, load_matrix_file, require_register_fits
from .linalg import as_matrix, hermitian_eig

DEGENERACY_ATOL = 1e-9
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class BadDimension(ValueError):
    """Level count or file dimension is not a power of two."""


@dataclass(frozen=True)
class SpinOperators:
    """Spin-1/2 triple (sx, sy, sz) and its two-qubit spin-1 lift (Sx, Sy, Sz)."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    Sx: np.ndarray
    Sy: np.ndarray
    Sz: np.ndarray


def spin_operators() -> SpinOperators:
    """Operators with Sz|00> = +|00>: the pair state |00> is the m = +1 level."""
    sx = 0.5 * SIGMA_X
    sy = 0.5 * SIGMA_Y
    sz = 0.5 * SIGMA_Z
    eye2 = np.eye(2, dtype=complex)
    return SpinOperators(
        sx=sx,
        sy=sy,
        sz=sz,
        Sx=np.kron(sx, eye2) + np.kron(eye2, sx),
        Sy=np.kron(sy, eye2) + np.kron(eye2, sy),
        Sz=np.kron(sz, eye2) + np.kron(eye2, sz),
    )


def _embed(op: np.ndarray, first_qubit: int, n_qubits: int) -> np.ndarray:
    """Place an operator on contiguous qubits into the n-qubit space."""
    span = int(round(np.log2(op.shape[0])))
    left = np.eye(2**first_qubit)
    right = np.eye(2 ** (n_qubits - first_qubit - span))
    return np.kron(np.kron(left, op), right)


def _dot_product(a_ops, b_ops) -> np.ndarray:
    return sum(np.kron(a, b) for a, b in zip(a_ops, b_ops))


def pair_swap(n_qubits: int, first_qubit: int) -> np.ndarray:
    """Swap of the qubit pair (first_qubit, first_qubit + 1), embedded."""
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    return _embed(swap, first_qubit, n_qubits)


def build_aklt(n_bulk: int) -> SystemModel:
    """Open AKLT chain: n_bulk spin-1 sites between two spin-1/2 ends.

    Each bulk bond contributes S_k.S_{k+1} + (S_k.S_{k+1})^2/3 + 2/3, twice
    the projector onto combined spin 2; each boundary contributes
    (2/3)(1 + s.S), the projector onto combined spin 3/2.  The chain is a
    sum of projectors, so it is positive semidefinite with ground energy
    exactly zero.  Each bond operator is real and goes through as_matrix
    before it is embedded, so H_S is accumulated in float64; a nonzero
    imaginary part would make the in-place sum fail to cast.
    """
    if n_bulk < 1:
        raise ValueError(f"need at least one spin-1 site, got {n_bulk}")
    n_qubits = 2 * n_bulk + 2
    dim = 2**n_qubits
    require_register_fits(dim)
    ops = spin_operators()
    small = (ops.sx, ops.sy, ops.sz)
    big = (ops.Sx, ops.Sy, ops.Sz)
    eye8 = np.eye(8)
    eye16 = np.eye(16)
    bond = _dot_product(big, big)
    left = as_matrix((2.0 / 3.0) * (eye8 + _dot_product(small, big)))
    right = as_matrix((2.0 / 3.0) * (eye8 + _dot_product(big, small)))
    bulk = as_matrix(bond + (bond @ bond) / 3.0 + (2.0 / 3.0) * eye16)
    h = np.zeros((dim, dim))
    h += _embed(left, 0, n_qubits)
    h += _embed(right, n_qubits - 3, n_qubits)
    for k in range(1, n_bulk):
        h += _embed(bulk, 2 * k - 1, n_qubits)
    return SystemModel(n_qubits=n_qubits, h_s=h, label=f"aklt{n_bulk}")


def build_diagonal(levels) -> SystemModel:
    """Diagonal system with the given spectrum; basis states are eigenstates."""
    vals = [float(x) for x in levels]
    n_dim = len(vals)
    if n_dim < 2 or n_dim & (n_dim - 1) != 0:
        raise BadDimension(f"need a power-of-two level count >= 2, got {n_dim}")
    require_register_fits(n_dim)
    label = "diag:" + ",".join(f"{v:g}" for v in vals)
    return SystemModel(n_qubits=n_dim.bit_length() - 1, h_s=np.diag(vals), label=label)


def ground_truth(model: SystemModel) -> tuple[float, np.ndarray, np.ndarray]:
    """Lowest eigenvalue, its eigenvector, and every gap E_j - E_1.

    A degenerate ground space comes back as an N x g column basis instead of
    a flat vector; callers can spot that case by ndim.
    """
    es = hermitian_eig(model.h_s)
    e1 = float(es.eigenvalues[0])
    degeneracy = int(np.sum(es.eigenvalues - e1 <= DEGENERACY_ATOL))
    if degeneracy > 1:
        chi1 = es.eigenvectors[:, :degeneracy].copy()
    else:
        chi1 = es.eigenvectors[:, 0].copy()
    gaps = np.asarray(es.eigenvalues, dtype=float) - e1
    return e1, chi1, gaps


def from_registry(name: str) -> SystemModel:
    """Resolve "aklt<N>", "diag:<e1,e2,...>" or "file:<path>" to a model."""
    if name.startswith("aklt"):
        try:
            n_bulk = int(name[4:])
        except ValueError as exc:
            raise ValueError(f"bad chain length in model name {name!r}") from exc
        return build_aklt(n_bulk)
    if name.startswith("diag:"):
        try:
            levels = [float(tok) for tok in name[5:].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad level list in model name {name!r}") from exc
        return build_diagonal(levels)
    if name.startswith("file:"):
        path = name[5:]
        h = load_matrix_file(path)
        n_dim = h.shape[0]
        if n_dim < 2 or n_dim & (n_dim - 1) != 0:
            raise BadDimension(f"{path}: dimension {n_dim} is not a power of two")
        return SystemModel(n_qubits=n_dim.bit_length() - 1, h_s=h, label=name)
    raise ValueError(f"unknown model name {name!r}")
