"""Built-in system Hamiltonians, the exact-diagonalization ground truth, and
the AKLT valence-bond ground state, which needs no diagonalization.

The AKLT chain puts each spin-1 site on two qubits via S = s_a + s_b; every
term commutes with the in-pair swap, so the antisymmetric (singlet) sector
decouples and the triplet sector carries the spin-1 physics.  Qubit order is
[left spin-1/2, pair 1, ..., pair n_bulk, right spin-1/2] with the left
spin most significant.  The chain is SU(2)-invariant, so it is built from
qubit swaps alone: s_i.s_j = P_ij/2 - 1/4, where P_ij permutes basis states.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import SystemModel, load_matrix_file, require_register_fits
from .linalg import BlockProduct, hermitian_eig

DEGENERACY_ATOL = 1e-9


def _swap(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Swap of qubits i and j as a basis permutation, qubit 0 most significant.

    Entry x is x with bits i and j exchanged; the swap is its own inverse,
    so its matrix has a one at (x, perm[x]) for every x.
    """
    x = np.arange(2**n_qubits)
    shift_i, shift_j = n_qubits - 1 - i, n_qubits - 1 - j
    flip = ((x >> shift_i) ^ (x >> shift_j)) & 1
    return x ^ (flip << shift_i) ^ (flip << shift_j)


def build_aklt(n_bulk: int) -> SystemModel:
    """Open AKLT chain: n_bulk spin-1 sites between two spin-1/2 ends.

    Each bulk bond contributes S_k.S_{k+1} + (S_k.S_{k+1})^2/3 + 2/3, twice
    the projector onto combined spin 2; each boundary contributes
    (2/3)(1 + s.S), the projector onto combined spin 3/2.  The chain is a
    sum of projectors, so it is positive semidefinite with ground energy
    exactly zero.  With s_i.s_j = P_ij/2 - 1/4, a boundary on end qubit e
    and pair (a1, a2) is (1 + P_e,a1 + P_e,a2)/3, and a bulk bond is
    (2 sum_p P_p + sum_p,q P_p P_q)/12 over its four cross-pair swaps p, q.
    The integer weights 4, 2 and 1 are summed exactly in float64 and divided
    by 12 once, so every entry of H_S is the float nearest its exact value.
    """
    if n_bulk < 1:
        raise ValueError(f"need at least one spin-1 site, got {n_bulk}")
    n_qubits = 2 * n_bulk + 2
    dim = 2**n_qubits
    require_register_fits(dim)
    last = n_qubits - 1
    rows = np.arange(dim)
    terms = []  # (weight, permutation): H_S = sum of weight * P / 12
    for end, pair in ((0, (1, 2)), (last, (last - 2, last - 1))):
        terms += [(4, rows)] + [(4, _swap(n_qubits, end, a)) for a in pair]
    for k in range(1, n_bulk):
        swaps = [_swap(n_qubits, a, b) for a in (2 * k - 1, 2 * k) for b in (2 * k + 1, 2 * k + 2)]
        terms += [(2, p) for p in swaps]
        terms += [(1, p[q]) for p in swaps for q in swaps]
    h = np.zeros((dim, dim))
    for weight, perm in terms:
        h[rows, perm] += weight
    h /= 12
    return SystemModel(h, label=f"aklt{n_bulk}")


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
    """Lowest eigenvalue, its eigenvector, and every gap E_j - E_1.

    A degenerate ground space comes back as an N x g column basis instead of
    a flat vector; callers can spot that case by ndim.
    """
    es = hermitian_eig(model.h_s)
    e1 = float(es.eigenvalues[0])
    degeneracy = int(np.sum(es.eigenvalues - e1 <= DEGENERACY_ATOL))
    product = BlockProduct(es, es.eigenvalues.size)
    columns = [product.times(unit) for unit in np.eye(degeneracy, es.eigenvalues.size)]
    chi1 = np.stack(columns, axis=1) if degeneracy > 1 else columns[0]
    gaps = np.asarray(es.eigenvalues, dtype=float) - e1
    return e1, chi1, gaps


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
            levels = [float(tok) for tok in name[5:].split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"bad level list in model name {name!r}") from exc
        return build_diagonal(levels)
    if name.startswith("file:"):
        return SystemModel(load_matrix_file(name[5:]), label=name)
    raise ValueError(f"unknown model name {name!r}")
