"""Dense linear algebra kernel.

Hermitian eigendecomposition and unitary propagators for register dimensions
up to a few thousand.  Matrices are row-major ndarrays and states are flat
complex vectors.  as_matrix holds the one dtype rule: a matrix whose
imaginary part is exactly zero (no tolerance; -0.0 is zero) is float64, any
other is complex128, so a real matrix is never cast up to complex.  All
functions are pure and never mutate their arguments.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def require_hermitian(h, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T)))
    # Written so that a NaN deviation fails the check.
    if not dev <= atol:
        raise NotHermitian(f"max|H - H^dag| = {dev:.3e} exceeds {atol:.1e}")
    return m


def require_normalized(v, atol: float = NORM_ATOL) -> np.ndarray:
    vec = as_state(v)
    dev = abs(float(np.linalg.norm(vec)) - 1.0)
    if not dev <= atol:
        raise NotNormalized(f"|norm - 1| = {dev:.3e} exceeds {atol:.1e}")
    return vec


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending; eigenvectors[:, k] has eigenvalues[k] and the matrix's dtype."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    require_hermitian applies as_matrix's dtype rule, so a matrix whose
    imaginary part is exactly zero reaches the real-symmetric solver and
    gets real eigenvectors; any other keeps the complex solver.
    """
    m = require_hermitian(h)
    w, v = np.linalg.eigh(m)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def propagator(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, built from the eigendecomposition.

    The spectral form keeps the result unitary to rounding error and makes
    the propagator exact for any t, which the analytic amplitude checks
    rely on.
    """
    es = hermitian_eig(h)
    phases = np.exp(-1j * es.eigenvalues * t)
    return (es.eigenvectors * phases) @ es.eigenvectors.conj().T


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 of two normalized states."""
    va = require_normalized(a)
    vb = require_normalized(b)
    if va.shape != vb.shape:
        raise DimensionMismatch(f"state dimensions differ: {va.size} vs {vb.size}")
    return float(abs(np.vdot(va, vb)) ** 2)


def align_global_phase(v) -> np.ndarray:
    """Rotate a state so its largest-magnitude amplitude is real positive."""
    vec = as_state(v)
    k = int(np.argmax(np.abs(vec)))
    mag = abs(vec[k])
    if mag == 0.0:
        return vec.copy()
    return vec * (mag / vec[k])
