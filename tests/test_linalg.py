import numpy as np
import pytest

from rescool.linalg import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    align_global_phase,
    fidelity,
    hermitian_eig,
    propagator,
    require_hermitian,
    require_normalized,
)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_state(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_hermitian_eig_invariants(dim, kind):
    # real-symmetric input stored as complex takes the real solver
    rng = np.random.default_rng(dim)
    for _ in range(10):
        h = random_hermitian(rng, dim)
        if kind == "real":
            h = h.real.astype(complex)
        es = hermitian_eig(h)
        v = es.eigenvectors
        assert np.isrealobj(v) == (kind == "real")
        assert np.all(np.diff(es.eigenvalues) >= 0)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        assert np.allclose(v @ np.diag(es.eigenvalues) @ v.conj().T, h, atol=1e-10)
        reference = np.linalg.eigvalsh(h)  # complex input: zheevd
        scale = np.linalg.norm(h, 2)
        assert np.max(np.abs(es.eigenvalues - reference)) <= 1e-12 * scale


def test_hermitian_eig_is_real_only_for_an_exactly_zero_imaginary_part():
    h = np.array([[1.0, 0.5], [0.5, 2.0]]) + 0j
    assert np.isrealobj(hermitian_eig(h).eigenvectors)
    # -0.0 is zero: the real solver still applies
    negative_zero = h.conj()
    assert np.signbit(negative_zero.imag).all()
    assert np.isrealobj(hermitian_eig(negative_zero).eigenvectors)
    # one tiny imaginary pair is physics, not noise: the complex solver keeps it
    tiny = h.copy()
    tiny[0, 1] += 1e-14j
    tiny[1, 0] -= 1e-14j
    es = hermitian_eig(tiny)
    v = es.eigenvectors
    assert np.iscomplexobj(v)
    assert np.abs(v.imag).max() > 0
    assert np.allclose(v @ np.diag(es.eigenvalues) @ v.conj().T, tiny, atol=1e-14, rtol=0)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_tolerates_roundoff():
    h = np.array([[1.0, 0.5 + 1e-13j], [0.5 - 1e-13j, 2.0]])
    require_hermitian(h)


def test_require_checks_reject_non_finite_input():
    # a NaN deviation compares false against any tolerance, so it must not pass
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitian):
        require_hermitian(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotNormalized):
        require_normalized(np.array([np.nan, 0.0]))
    with pytest.raises(NotNormalized):
        require_normalized(np.array([np.inf, 0.0]))


def test_require_normalized():
    require_normalized(np.array([1.0, 0.0]))
    with pytest.raises(NotNormalized):
        require_normalized(np.array([1.0, 1.0]))


def test_propagator_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_hermitian(rng, 6)
        u = propagator(h, rng.uniform(0.1, 30.0))
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-10)


def test_propagator_known_two_level():
    # exp(-i sz t) is diagonal with phases e^{-it}, e^{+it}
    sz = np.diag([1.0, -1.0]).astype(complex)
    t = 0.7
    u = propagator(sz, t)
    assert np.allclose(u, np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-12)


def test_propagator_zero_time_is_identity():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 5)
    assert np.allclose(propagator(h, 0.0), np.eye(5), atol=1e-12)


def test_propagator_composes():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 4)
    assert np.allclose(
        propagator(h, 1.2) @ propagator(h, 0.9), propagator(h, 2.1), atol=1e-10
    )


def test_fidelity_extremes():
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    assert fidelity(e0, e0) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(e0, e1) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_phase_invariant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_state(rng, 8)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert fidelity(a, phase * a) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_rejects_bad_inputs():
    with pytest.raises(NotNormalized):
        fidelity(np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatch):
        fidelity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]) / 1.0)


def test_align_global_phase_largest_entry_real_positive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = random_state(rng, 6)
        w = align_global_phase(v)
        k = int(np.argmax(np.abs(w)))
        assert w[k].imag == pytest.approx(0.0, abs=1e-12)
        assert w[k].real > 0
        assert fidelity(v / np.linalg.norm(v), w / np.linalg.norm(w)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_align_global_phase_idempotent():
    v = np.exp(1j * 0.4) * np.array([0.6, 0.8], dtype=complex)
    w = align_global_phase(v)
    assert np.allclose(align_global_phase(w), w, atol=1e-14)
