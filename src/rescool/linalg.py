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
batch per block size; the eigenvectors stay in those blocks, which are their
only form.  BlockProduct multiplies a vector by them, or by their adjoint,
block by block, so nothing forms the dense n x n eigenvector matrix.
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


def _check_hermitian(stacks) -> None:
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
    if not dev <= HERMITIAN_ATOL:
        raise NotHermitian(f"max|H - H^dag| = {dev:.3e} exceeds {HERMITIAN_ATOL:.1e}")


def require_hermitian(h) -> np.ndarray:
    m = _square(h)
    _check_hermitian([m])
    return m


def require_normalized(v) -> np.ndarray:
    vec = as_state(v)
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= NORM_ATOL:
        raise NotNormalized(f"|norm - 1| = {dev:.3e} exceeds {NORM_ATOL:.1e}")
    return vec


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending, and the eigenvectors in the blocks they live on.

    blocks is one (rows, cols, vecs) triple per block size s: rows and cols
    are k x s index arrays and vecs is the k x s x s stack eigh returned,
    with the matrix's dtype.  Block b spans matrix indices rows[b], listed
    ascending; its eigenvector vecs[b][:, j] has eigenvalue
    eigenvalues[cols[b, j]] and is exactly zero off rows[b].  Blocks of one
    size come in the order of their smallest index.  There is no dense view:
    BlockProduct applies the eigenvectors, and one column is V e_k.
    """

    eigenvalues: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


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
    block size; a stable sort then merges the eigenvalues, and each block
    keeps its eigenvectors as eigh returned them, with cols naming their
    places in the merged order.  Nothing is scattered into a dense n x n
    matrix.  The Hermiticity check runs on the same gathered blocks, and it
    is as strict as require_hermitian on the whole matrix: NaN and inf are
    nonzeros, so they fall inside a block, and every entry between blocks is
    exactly zero on both sides of the diagonal.  An irreducible matrix, or
    one below BLOCKWISE_MIN_DIM rows, is one block holding eigh's own output.
    """
    m = _square(h)
    n = m.shape[0]
    groups = _blocks(m) if n >= BLOCKWISE_MIN_DIM else [np.arange(n)[None]]
    whole = len(groups) == 1 and groups[0].shape[0] == 1
    stacks = [m] if whole else [m[idx[:, :, None], idx[:, None, :]] for idx in groups]
    _check_hermitian(stacks)
    if whole:
        w, v = np.linalg.eigh(m)
        return EigenSystem(w, ((groups[0], groups[0], v[None]),))
    solved = [np.linalg.eigh(s) for s in stacks]
    w = np.concatenate([wb.ravel() for wb, _ in solved])
    order = np.argsort(w, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    blocks = []
    start = 0
    for idx, (_, vb) in zip(groups, solved):
        blocks.append((idx, position[start : start + idx.size].reshape(idx.shape), vb))
        start += idx.size
    return EigenSystem(w[order], tuple(blocks))


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
    (V_b * phases) @ V_b^dag from its stack of eigenvectors, so the entries
    between blocks stay exactly zero.  require_finite_phase runs before any
    phase is formed.
    """
    es = hermitian_eig(h)
    require_finite_phase(es.eigenvalues, t)
    phases = np.exp(-1j * es.eigenvalues * t)
    n = phases.size
    u = np.zeros((n, n), dtype=complex)
    for rows, cols, vecs in es.blocks:
        ub = (vecs * phases[cols][:, None, :]) @ vecs.conj().swapaxes(1, 2)
        u[rows[:, :, None], rows[:, None, :]] = ub
    return u


class BlockProduct:
    """V[:n]^dag x and V y for the eigenvectors V of an EigenSystem, block by block.

    Each block size keeps its rows, cols, stack and the stack's adjoint,
    built once, for the blocks with a row among the first n only: the others
    have no entry in V[:n], so V[:n]^dag x is zero on their columns, and
    times is V y for a y that is zero there too (any y when n is the full
    dimension).  Coefficients are in eigenvalue order.
    """

    def __init__(self, es: EigenSystem, n: int):
        self.dim = es.eigenvalues.size
        self.n = n
        self.dtype = es.blocks[0][2].dtype
        self.parts = []
        for rows, cols, vecs in es.blocks:
            # blocks of one size come in the order of their smallest row
            live = int(np.searchsorted(rows[:, 0], n))
            if live:
                vecs = vecs[:live]
                adjoint = vecs.conj().swapaxes(1, 2)
                self.parts.append((rows[:live, :, None], cols[:live, :, None], vecs, adjoint))

    def _times(self, stack: np.ndarray, b: np.ndarray) -> np.ndarray:
        # a real stack multiplies a float view of a complex b, which puts each
        # entry's two parts side by side, so neither operand is cast up
        if self.dtype.kind != "c" and b.dtype.kind == "c":
            return (stack @ b.view(float)).view(complex)
        return stack @ b

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.dim, dtype=x.dtype)
        padded[: self.n] = x
        out = np.zeros(self.dim, dtype=np.result_type(self.dtype, x))
        for rows, cols, _, adjoint in self.parts:
            out[cols] = self._times(adjoint, padded[rows])
        return out

    def times(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.result_type(self.dtype, y))
        for rows, cols, vecs, _ in self.parts:
            out[rows] = self._times(vecs, y[cols])
        return out


def propagator_action(h, t: float, n: int) -> Callable:
    """x -> exp(-i h t)[:, :n] @ x, as V (exp(-i E t) * (V[:n]^dag x)) from hermitian_eig.

    No exp(-i h t) and no dense V is formed: one BlockProduct for length n
    runs the product block by block, and the phase check runs once, here.
    """
    es = hermitian_eig(h)
    require_finite_phase(es.eigenvalues, t)
    phases = np.exp(-1j * es.eigenvalues * t)
    product = BlockProduct(es, n)
    return lambda x: product.times(phases * product.adjoint(x))


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
