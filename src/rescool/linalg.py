"""Dense linear algebra kernel.

Hermitian eigendecomposition and unitary propagators for register dimensions
up to a few thousand.  propagator_action applies exp(-iht) to a state, as a
cooling step does; propagator forms it, for the Trotter factors and as the
dense oracle.  Matrices are row-major ndarrays and states are flat
complex vectors.  as_matrix holds the one dtype rule: a matrix whose
imaginary part is exactly zero (no tolerance; -0.0 is zero) is float64, any
other is complex128, so a real matrix is never cast up to complex.  The
eigendecomposition works on the blocks the matrix's exact zeros leave: the
connected components of m != 0, checked for Hermiticity and diagonalized one
batch per block size, then scattered back into dense eigenvectors.
power_of_product forms (a @ b)^l on the components of a and b together, so
no dense product or power of the whole matrix is taken.  All functions are
pure and never mutate their arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable

import numpy as np

HERMITIAN_ATOL = 1e-10
NORM_ATOL = 1e-10
# Below this dimension one eigh of the whole matrix is cheaper than finding
# and batching its blocks: finding them costs about 0.1 ms, more than a dense
# eigh of 32 rows.  At 64 rows the blocks win on the aklt1 register that
# every mc-aklt1 run diagonalizes (see CHANGES.md).
BLOCKWISE_MIN_DIM = 64


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


def _check_hermitian(stacks, atol: float) -> None:
    """Raise NotHermitian unless each square matrix, or stack of them, is finite and Hermitian."""
    if not all(np.isfinite(s).all() for s in stacks):
        raise NotHermitian("matrix has non-finite entries")
    dev = 0.0
    for s in stacks:  # s^dag - s and its magnitude in one array; a real s is not conjugated
        d = s.swapaxes(-1, -2)
        d = np.conjugate(d) if np.iscomplexobj(s) else d.copy()
        d -= s
        dev = max(dev, float(np.abs(d, out=d).real.max()))
    # Written so that a NaN deviation fails the check.
    if not dev <= atol:
        raise NotHermitian(f"max|H - H^dag| = {dev:.3e} exceeds {atol:.1e}")


def require_hermitian(h, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    m = _square(h)
    _check_hermitian([m], atol)
    return m


def require_normalized(v, atol: float = NORM_ATOL) -> np.ndarray:
    vec = as_state(v)
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= atol:
        raise NotNormalized(f"|norm - 1| = {dev:.3e} exceeds {atol:.1e}")
    return vec


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending; eigenvectors[:, k] has eigenvalues[k] and the matrix's dtype.

    blocks is the partition the decomposition ran on: one (rows, cols) pair of
    k x s index arrays per block size s.  Block b of a pair spans matrix
    indices rows[b] and eigenvector columns cols[b]; every other entry of
    those columns is exactly zero.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]


def _blocks(m: np.ndarray) -> list[np.ndarray]:
    """Connected components of m != 0 (read both ways), one k x s index array per size s.

    Rows of an array list a component's indices ascending; components of
    one size come in the order of their smallest index.  label[i] is an
    index of i's component no larger than i, and a root labels itself.  The
    first hook is each row's first nonzero, which settles a dense matrix at
    once.  After that, pointer jumping (label <- label[label]) alternates
    with hooking every root onto the smallest label across its nonzero
    entries, until no root moves; each component ends on its smallest index.
    """
    n = m.shape[0]
    linked = m != 0
    np.fill_diagonal(linked, True)
    label = linked.argmax(axis=1)
    ends = None
    while True:
        jumped = label[label]
        if (jumped != label).any():
            label = jumped
            continue
        if ends is None:
            if not label.any():
                break
            rows, cols = np.divmod(np.flatnonzero(linked), n)
            ends = np.concatenate((rows, cols))
            others = np.concatenate((cols, rows))
        hooked = label.copy()
        np.minimum.at(hooked, label[ends], label[others])
        if (hooked == label).all():
            break
        label = hooked
    sizes = np.bincount(label, minlength=n)
    counts = sizes[sizes > 0]
    starts = np.cumsum(counts) - counts
    members = np.argsort(label, kind="stable")
    return [
        members[starts[counts == s][:, None] + np.arange(s)] for s in sorted(set(counts.tolist()))
    ]


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    as_matrix's dtype rule sends a matrix whose imaginary part is exactly
    zero to the real-symmetric solver, which gives real eigenvectors; any
    other keeps the complex solver.  From BLOCKWISE_MIN_DIM rows on, the
    matrix is split into the connected components of its exact nonzeros (no
    tolerance) and each is diagonalized on its own, one batched eigh per
    block size; a stable sort then merges the eigenpairs.  The Hermiticity
    check runs on the same gathered blocks, and it is as strict as
    require_hermitian on the whole matrix: NaN and inf are nonzeros, so they
    fall inside a block, and every entry between blocks is exactly zero on
    both sides of the diagonal.  An irreducible matrix is one block and gets
    eigh's own output.
    """
    m = _square(h)
    n = m.shape[0]
    groups = _blocks(m) if n >= BLOCKWISE_MIN_DIM else [np.arange(n)[None]]
    whole = len(groups) == 1 and groups[0].shape[0] == 1
    stacks = [m] if whole else [m[idx[:, :, None], idx[:, None, :]] for idx in groups]
    _check_hermitian(stacks, HERMITIAN_ATOL)
    if whole:
        w, v = np.linalg.eigh(m)
        return EigenSystem(w, v, ((groups[0], groups[0]),))
    solved = [np.linalg.eigh(s) for s in stacks]
    w = np.concatenate([wb.ravel() for wb, _ in solved])
    order = np.argsort(w, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    v = np.zeros((n, n), dtype=m.dtype)
    blocks = []
    start = 0
    for idx, (_, vb) in zip(groups, solved):
        cols = position[start : start + idx.size].reshape(idx.shape)
        start += idx.size
        v[idx[:, :, None], cols[:, None, :]] = vb
        blocks.append((idx, cols))
    return EigenSystem(w[order], v, tuple(blocks))


def require_finite_phase(eigenvalues: np.ndarray, t: float) -> None:
    """ValueError unless max|E| * t is finite (E ascending); Python floats cannot warn."""
    e_max = max(abs(float(eigenvalues[0])), abs(float(eigenvalues[-1])))
    if not isfinite(e_max * t):
        raise ValueError(f"phase max|E| * t is not finite: max|E| = {e_max:.6g}, t = {t:.6g}")


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, built block by block from the eigendecomposition.

    The spectral form keeps the result unitary to rounding error and makes
    the propagator exact for any t, which the analytic amplitude checks
    rely on.  Each block of hermitian_eig's partition gets its own
    (V * phases) @ V^dag, so the entries between blocks stay exactly zero.
    require_finite_phase runs before any phase is formed.
    """
    es = hermitian_eig(h)
    require_finite_phase(es.eigenvalues, t)
    phases = np.exp(-1j * es.eigenvalues * t)
    n = phases.size
    u = np.zeros((n, n), dtype=complex)
    for rows, cols in es.blocks:
        vb = es.eigenvectors[rows[:, :, None], cols[:, None, :]]
        ub = (vb * phases[cols][:, None, :]) @ vb.conj().swapaxes(1, 2)
        u[rows[:, :, None], rows[:, None, :]] = ub
    return u


def _times(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a complex x; a real m multiplies x's two parts apart, so it is never cast up."""
    if np.iscomplexobj(m):
        return m @ x
    return m @ x.real + 1j * (m @ x.imag)


def propagator_action(h, t: float) -> Callable:
    """x -> exp(-i h t)[:, :x.size] @ x, as V (exp(-i E t) * (V[:n]^dag x)) from hermitian_eig.

    No exp(-i h t) is formed, and the phase check runs once, here.
    """
    es = hermitian_eig(h)
    require_finite_phase(es.eigenvalues, t)
    phases = np.exp(-1j * es.eigenvalues * t)
    v = es.eigenvectors

    def act(x):
        # (x^dag V[:n])^dag is V[:n]^dag x without a conjugated copy of V
        coefficients = _times(v[: x.size].T, x.conj()).conj()
        return _times(v, phases * coefficients)

    return act


def power_of_product(a: np.ndarray, b: np.ndarray, l: int) -> np.ndarray:
    """(a @ b)^l for square a and b of one shape, built block by block.

    The blocks are the connected components of the exact nonzeros of a and
    b taken together, so both are block-diagonal on them and so is every
    power of their product.  Each block gets its own product and
    matrix_power, batched over blocks of one size, and the entries between
    blocks stay exactly zero.
    """
    n = a.shape[0]
    u = np.zeros((n, n), dtype=np.result_type(a, b))
    for idx in _blocks((a != 0) | (b != 0)):
        sel = idx[:, :, None], idx[:, None, :]
        u[sel] = np.linalg.matrix_power(a[sel] @ b[sel], l)
    return u


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
