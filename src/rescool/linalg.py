"""Linear algebra kernel: block eigendecomposition, states, and the dense oracle.

Hermitian eigendecomposition and unitary propagators for register dimensions
up to a few thousand.  The run path reads one EigenSystem of H_S per model:
overlaps(x) takes a state into its eigenbasis and combine(d) back out, and a
cooling run multiplies the overlaps by N amplitudes per step in between.
propagator forms exp(-iht) from one eigh of the whole matrix and serves the
dense register oracle only.  Matrices are row-major ndarrays and states are
flat complex vectors.  as_matrix holds the one dtype rule: a matrix whose
imaginary part is exactly zero (no tolerance; -0.0 is zero) is float64, any
other is complex128, so a real matrix is never cast up to complex.  Every
eigendecomposition is one solve_entries call on a matrix's entries, listed
as index pairs: hermitian_eig lists a dense matrix's exact nonzeros, and a
model may list its entries in a basis of its own without forming the
matrix (models.build_aklt's pair basis), then hand the EigenSystem that
basis as a rotation.  The blocks are the connected components of the
listed positions, at every size; the entries are checked for Hermiticity
in one pass, and each block size is gathered into one stack and
diagonalized in one batch.  Each block keeps its eigenvectors, in their
only form, next to its own energies; no run path forms the dense n x n
eigenvector matrix.
All functions are pure and never mutate their arguments.
"""
from __future__ import annotations

from functools import cached_property
from math import isfinite
from typing import Callable

import numpy as np

HERMITIAN_ATOL = 1e-10
NORM_ATOL = 1e-10


class NotHermitian(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotNormalized(ValueError):
    """Vector norm differs from 1 beyond tolerance."""


def as_matrix(a) -> np.ndarray:
    """float64 (contiguous) when the imaginary part is exactly zero, else complex128."""
    m = np.asarray(a)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"expected a non-empty matrix, got shape {m.shape}")
    if np.iscomplexobj(m) and m.imag.any():
        return m.astype(complex, copy=False)
    return np.ascontiguousarray(m.real, dtype=float)


def as_state(v) -> np.ndarray:
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if vec.size == 0:
        raise DimensionMismatch("empty state vector")
    return vec


def _square(h) -> np.ndarray:
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def _check_hermitian(entries, mirror) -> None:
    """NotHermitian unless each entry is finite and the conjugate of its mirror entry."""
    if not np.isfinite(entries).all():
        raise NotHermitian("matrix has non-finite entries")
    d = mirror.copy()  # C-ordered, so no step below buffers; mirror^* - entries, then its magnitude
    np.conjugate(d, out=d)
    d -= entries
    dev = float(np.abs(d, out=d).real.max())
    # Written so that a NaN deviation fails the check.
    if not dev <= HERMITIAN_ATOL:
        raise NotHermitian(f"max|H - H^dag| = {dev:.3e} exceeds {HERMITIAN_ATOL:.1e}")


def require_hermitian(h) -> np.ndarray:
    m = _square(h)
    _check_hermitian(m, m.T)
    return m


def require_normalized(v) -> np.ndarray:
    """v as a 1-D complex state; NotNormalized unless its norm is 1 within NORM_ATOL."""
    vec = as_state(v)
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= NORM_ATOL:
        raise NotNormalized(f"|norm - 1| = {dev:.3e} exceeds {NORM_ATOL:.1e}")
    return vec


class EigenSystem:
    """Eigenvalues ascending, and the eigenvectors in the blocks they live on.

    blocks is one (rows, energies, vecs) triple per block size s, as
    solve_entries solved it: rows and energies are k x s arrays and vecs is
    the k x s x s stack eigh returned, with the matrix's dtype.  Block b
    spans matrix indices rows[b], listed ascending; its eigenvector
    vecs[b][:, j] has energy energies[b, j] and is exactly zero off rows[b].
    Blocks of one size come in the order of their smallest index.  energies
    is every eigenvector's energy in block order, the order overlaps and
    combine use, and eigenvalues the same sorted.  rotation, when given, is
    the basis the blocks were solved in: a real orthogonal Q with Q = Q^T =
    Q^-1, applied as a function along the first axis of a copy.  The
    eigenvectors are then Q's image of the block columns; overlaps applies Q
    first and combine applies it last.
    """

    def __init__(self, blocks, rotation: Callable[[np.ndarray], np.ndarray] | None = None):
        self.blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] = tuple(blocks)
        self.rotation = rotation

    @cached_property
    def energies(self) -> np.ndarray:
        return np.concatenate([energies.ravel() for _, energies, _ in self.blocks])

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.sort(self.energies)

    def overlaps(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(energies, V^dag x) in block order; x must hold one entry per eigenvector."""
        if x.size != self.energies.size:
            raise DimensionMismatch(f"state is {x.size}-dim, spectrum is {self.energies.size}-dim")
        if self.rotation is not None:
            x = self.rotation(x)
        d = [
            _times(v.conj().swapaxes(1, 2), x[rows[:, :, None]]).ravel()
            for rows, _, v in self.blocks
        ]
        return self.energies, np.concatenate(d)

    def combine(self, d: np.ndarray) -> np.ndarray:
        """V d = sum_j d_j chi_j, which undoes overlaps: d in block order along its first axis.

        d is n or n x m; the result has d's shape, one state per column.
        """
        out = np.zeros(d.shape, dtype=complex)
        start = 0
        for rows, _, v in self.blocks:
            part = d[start : start + rows.size].reshape(*rows.shape, -1)
            out[rows] = _times(v, part).reshape(*rows.shape, *d.shape[1:])
            start += rows.size
        return out if self.rotation is None else self.rotation(out)


def _times(stack: np.ndarray, b: np.ndarray) -> np.ndarray:
    """stack @ b; a real stack takes a complex b as a float view, so neither is cast up."""
    if stack.dtype.kind != "c" and b.dtype.kind == "c":
        return (stack @ b.view(float)).view(complex)
    return stack @ b


def _components(label: np.ndarray, left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
    """Components of a first hook and index pairs, one k x s index array per size s.

    label[i] <= i is joined to i, and left[k] to right[k] for every k.  Rows
    list a component's indices ascending, one size in order of their first.
    Pointer jumping (label <- label[label]) alternates with hooking every
    root onto the smallest label across its pairs until no root moves.
    """
    ends = np.concatenate((left, right))
    others = np.concatenate((right, left))
    while True:
        jumped = label[label]
        if (jumped != label).any():
            label = jumped
            continue
        if not label.any():
            break
        hooked = label.copy()
        np.minimum.at(hooked, label[ends], label[others])
        if (hooked == label).all():
            break
        label = hooked
    sizes = np.bincount(label, minlength=label.size)
    counts = sizes[sizes > 0]
    starts = np.cumsum(counts) - counts
    members = np.argsort(label, kind="stable")
    return [
        members[starts[counts == s][:, None] + np.arange(s)] for s in sorted(set(counts.tolist()))
    ]


def solve_entries(label, rows, cols, values, rotation=None) -> EigenSystem:
    """EigenSystem of the Hermitian matrix whose entries are values at (rows, cols).

    The matrix is label.size square, and label is a first hook for
    _components (label[i] <= i; np.arange(n) when none is known).  Entries at
    one position add up, in order; a position no entry names is zero.  The
    blocks are the components of the listed positions, and each block size
    is gathered into one stack by a single bincount into a flat buffer and
    solved by one batched eigh, once every listed entry is checked against
    its mirror (an unlisted one is zero, the mirror of a listed one).
    values' dtype is the stacks' dtype.  rotation goes to the EigenSystem.
    """
    groups = _components(label, rows, cols)
    head = np.empty(label.size, dtype=np.intp)  # flat offset of each index's row
    place = np.empty(label.size, dtype=np.intp)  # each index's column within its block
    spans, start = [], 0
    for idx in groups:
        k, s = idx.shape
        head[idx] = start + s * np.arange(k * s).reshape(k, s)
        place[idx] = np.arange(s)
        spans.append((start, idx.shape))
        start += k * s * s
    flat = head[rows] + place[cols]
    buffer = np.bincount(flat, weights=values.real, minlength=start)
    if np.iscomplexobj(values):
        buffer = buffer + 1j * np.bincount(flat, weights=values.imag, minlength=start)
    _check_hermitian(buffer[flat], buffer[head[cols] + place[rows]])
    stacks = [buffer[at : at + k * s * s].reshape(k, s, s) for at, (k, s) in spans]
    return EigenSystem(((idx, *np.linalg.eigh(s)) for idx, s in zip(groups, stacks)), rotation)


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    as_matrix's dtype rule sends a matrix whose imaginary part is exactly
    zero to the real-symmetric solver, which gives real eigenvectors; any
    other keeps the complex solver.  The matrix's exact nonzeros (no
    tolerance) and its diagonal go to solve_entries, so it is split into
    their connected components at every size, and an exact zero weight
    reads as zero whatever the dimension.  The first hook, each row's first
    nonzero, settles a dense matrix at once.  The Hermiticity check runs on
    every block before any eigh, and is as strict as require_hermitian on
    the whole matrix: NaN and inf are nonzeros, so they fall inside a block,
    and every entry between blocks is exactly zero on both sides of the
    diagonal.  Nothing is scattered into a dense n x n matrix.
    """
    m = _square(h)
    linked = m != 0
    np.fill_diagonal(linked, True)
    flat = np.flatnonzero(linked)
    rows, cols = np.divmod(flat, m.shape[0])
    return solve_entries(linked.argmax(axis=1), rows, cols, m.ravel()[flat])


def require_finite_block_phase(energies, epsilon0, coupling, t) -> None:
    """ValueError unless t (max|E_j| + |eps0| + c + 1), which bounds every block phase, is finite."""
    # summed as Python floats, which overflow to inf without a warning; propagator's c = eps0 = 0
    bound = float(np.abs(energies).max()) + float(abs(epsilon0)) + float(coupling) + 1.0
    if not isfinite(bound * t):
        raise ValueError(f"phase max|E| * t is not finite: max|E| = {bound:.6g}, t = {t:.6g}")


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, as V exp(-i E t) V^dag: the dense oracle only.

    V and E come from one numpy eigh of the whole matrix, with no block
    search, so the oracle shares no code with hermitian_eig and the run path
    it checks.  The spectral form keeps the result unitary to rounding error
    and exact for any t, which the analytic amplitude checks rely on.
    Every phase is refused, as blocks with eps0 = c = 0, before any is formed.
    """
    energies, v = np.linalg.eigh(require_hermitian(h))
    require_finite_block_phase(energies, 0.0, 0.0, t)
    return (v * np.exp(-1j * energies * t)) @ v.conj().T


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two normalized states."""
    va = require_normalized(a)
    vb = require_normalized(b)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"state dimensions differ: {va.size} vs {vb.size}")
    return float(abs(np.vdot(va, vb)) ** 2)


def align_global_phase(v) -> np.ndarray:
    """Rotate a state so its largest-magnitude amplitude is exactly real positive."""
    vec = as_state(v)
    k = int(np.argmax(np.abs(vec)))
    mag = abs(vec[k])
    if mag == 0.0:
        return vec.copy()
    out = vec * (mag / vec[k])
    out[k] = mag  # exact; the product leaves rounding in the imaginary part
    return out
