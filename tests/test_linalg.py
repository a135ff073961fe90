import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescool import linalg
from rescool.linalg import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    align_global_phase,
    as_state,
    fidelity,
    hermitian_eig,
    propagator,
    require_hermitian,
    require_normalized,
)
from rescool.models import build_aklt


eigh = np.linalg.eigh
# Size lists are repeated up to this many rows, so blocks of one size come in batches.
BATCH_ROWS = 64


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
        v = es.blocks[0][2][0]  # a dense matrix is one block: eigh's own output
        assert np.isrealobj(v) == (kind == "real")
        assert np.all(np.diff(es.eigenvalues) >= 0)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        assert np.allclose(v @ np.diag(es.eigenvalues) @ v.conj().T, h, atol=1e-10)
        reference = np.linalg.eigvalsh(h)  # complex input: zheevd
        scale = np.linalg.norm(h, 2)
        assert np.max(np.abs(es.eigenvalues - reference)) <= 1e-12 * scale


def test_hermitian_eig_is_real_only_for_an_exactly_zero_imaginary_part():
    h = np.array([[1.0, 0.5], [0.5, 2.0]]) + 0j
    assert np.isrealobj(hermitian_eig(h).blocks[0][2])
    # -0.0 is zero: the real solver still applies
    negative_zero = h.conj()
    assert np.signbit(negative_zero.imag).all()
    assert np.isrealobj(hermitian_eig(negative_zero).blocks[0][2])
    # one tiny imaginary pair is physics, not noise: the complex solver keeps it
    tiny = h.copy()
    tiny[0, 1] += 1e-14j
    tiny[1, 0] -= 1e-14j
    es = hermitian_eig(tiny)
    v = es.blocks[0][2][0]
    assert np.iscomplexobj(v)
    assert np.abs(v.imag).max() > 0
    assert np.allclose(v @ np.diag(es.eigenvalues) @ v.conj().T, tiny, atol=1e-14, rtol=0)


def permuted_block_diagonal(rng, sizes, real):
    """Hermitian matrix with the given diagonal blocks, rows and columns shuffled.

    Each block is dense (irreducible), all zero (so it falls apart into
    singletons) or a copy of the last dense block of its size (so the two
    spectra coincide).  Returns the matrix and its components as index sets.
    """
    n = sum(sizes)
    h = np.zeros((n, n), dtype=float if real else complex)
    parts = []
    last = {}
    start = 0
    for size in sizes:
        span = slice(start, start + size)
        kind = rng.integers(3)
        if kind == 1:
            parts += [{i} for i in range(start, start + size)]
        else:
            if kind == 0 or size not in last:
                a = rng.normal(size=(size, size))
                if not real:
                    a = a + 1j * rng.normal(size=(size, size))
                last[size] = (a + a.conj().T) / 2
            h[span, span] = last[size]
            parts.append(set(range(start, start + size)))
        start += size
    perm = rng.permutation(n)
    where = np.argsort(perm)  # old index i lands at where[i]
    return h[np.ix_(perm, perm)], {frozenset(int(where[i]) for i in part) for part in parts}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    t=st.floats(0.0, 10.0),
)
def test_block_eig_matches_dense_eigh(sizes, seed, real, t):
    # repeating the size list gives batches of equal-size blocks
    sizes = sizes * -(-BATCH_ROWS // sum(sizes))
    rng = np.random.default_rng(seed)
    h, parts = permuted_block_diagonal(rng, sizes, real)
    n = h.shape[0]
    es = hermitian_eig(h)
    # the partition is the components, and each block holds its own energies
    found = {frozenset(block.tolist()) for rows, _, _ in es.blocks for block in rows}
    assert found == parts
    assert all(e.shape == rows.shape for rows, e, _ in es.blocks)
    # each eigenvector, exactly zero off its block, is an eigenvector of h:
    # V in block order, scattered by the test, rebuilds h
    v = np.zeros((n, n), dtype=es.blocks[0][2].dtype)
    column = 0
    for rows, _, vecs in es.blocks:
        for b, j in np.ndindex(rows.shape):
            v[rows[b], column] = vecs[b, :, j]
            column += 1
    scale = np.linalg.norm(h, 2)
    assert np.isrealobj(v) == (not np.iscomplex(h).any())
    x = random_state(rng, n)
    energies, d = es.overlaps(x)
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
    assert np.max(np.abs((v * energies) @ v.conj().T - h)) <= 1e-12 * scale
    assert np.max(np.abs(h @ v - v * energies)) <= 1e-12 * scale
    assert np.max(np.abs(d - v.conj().T @ x)) <= 1e-12
    assert np.array_equal(es.eigenvalues, np.sort(energies))
    assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-12 * scale
    w, q = np.linalg.eigh(h)
    dense = (q * np.exp(-1j * w * t)) @ q.conj().T
    assert np.max(np.abs(propagator(h, t) - dense)) <= 1e-12


def test_propagator_is_one_eigh_of_the_whole_matrix(monkeypatch):
    # the dense oracle shares no block code with the run path it checks
    def refuse(h):
        raise AssertionError("propagator went through hermitian_eig")

    monkeypatch.setattr(linalg, "hermitian_eig", refuse)
    rng = np.random.default_rng(11)
    h, _ = permuted_block_diagonal(rng, [1, 3, 5, 7] * 4, False)
    assert h.shape == (BATCH_ROWS, BATCH_ROWS)
    t = 2.7
    w, q = np.linalg.eigh(h)
    assert np.max(np.abs(propagator(h, t) - (q * np.exp(-1j * w * t)) @ q.conj().T)) <= 1e-12


def test_hermitian_eig_solves_within_the_call(monkeypatch):
    # one batched eigh per block size while hermitian_eig runs and none when
    # its result is read; the one deferred solve is SystemModel.spectrum
    rng = np.random.default_rng(13)
    h, _ = permuted_block_diagonal(rng, [1, 3, 5, 7] * 4, real=False)
    solved = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.shape) or eigh(a))
    es = hermitian_eig(h)
    during = list(solved)
    solved.clear()
    stacks = [vecs.shape for _, _, vecs in es.blocks]
    assert len({shape[-1] for shape in stacks}) == len(stacks) > 1
    assert during == stacks
    x = random_state(rng, h.shape[0])
    _, d = es.overlaps(x)
    assert np.allclose(es.combine(d), x, atol=1e-12)
    assert es.energies.size == es.eigenvalues.size == h.shape[0]
    assert solved == []


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shape", ["dense", "tridiagonal"])
def test_irreducible_matrix_gets_eighs_own_output(shape, real):
    rng = np.random.default_rng(8)
    n = 2 * BATCH_ROWS
    h = random_hermitian(rng, n)
    if real:
        h = h.real
    if shape == "tridiagonal":
        h = np.triu(np.tril(h, 1), -1)
        perm = rng.permutation(n)
        h = h[np.ix_(perm, perm)]
    es = hermitian_eig(h)
    w, v = np.linalg.eigh(h)
    assert len(es.blocks) == 1 and es.blocks[0][0].shape == (1, n)
    assert np.array_equal(es.eigenvalues, w)
    assert np.array_equal(es.blocks[0][2][0], v)


def test_small_matrices_split_along_their_zeros():
    # every size is split, so an exact zero weight reads as zero at 2 rows as at 64
    for dim in (2, BATCH_ROWS - 1):
        h = np.diag(np.arange(dim - 1.0, -1.0, -1.0))
        es = hermitian_eig(h)
        (rows, energies, vecs), = es.blocks
        assert rows.shape == (dim, 1) and np.array_equal(rows[:, 0], np.arange(dim))
        assert np.array_equal(vecs, np.ones((dim, 1, 1)))
        assert np.array_equal(es.eigenvalues, np.linalg.eigh(h)[0])
    # the three-block file matrix the reference invocations load: ground vector
    # supported on its own block, exactly zero on the others
    idx = np.arange(16)
    h = np.where(idx[:, None] % 3 == idx[None, :] % 3, 0.25 + 0.125 * np.add.outer(idx, idx), 0.0)
    h = h + np.diag(idx / 4.0)
    es = hermitian_eig(h)
    assert sorted(len(r) for rows, _, _ in es.blocks for r in rows) == [5, 5, 6]
    ground = es.combine(np.eye(16)[:, [int(np.argmin(es.energies))]])[:, 0]
    assert np.count_nonzero(ground) <= 6


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("defect", ["inside", "joining", "nan", "inf"])
def test_block_check_fails_as_the_whole_check_does(defect):
    # hermitian_eig checks only its gathered blocks; each defect must still
    # land inside one and give require_hermitian's own message
    rng = np.random.default_rng(12)
    h, parts = permuted_block_diagonal(rng, [8] * 9, real=False)
    (i, j, *_), (k, *_) = sorted(sorted(part) for part in parts if len(part) > 1)[:2]
    assert sum(rows.shape[0] for rows, _, _ in hermitian_eig(h).blocks) > 1
    if defect == "inside":
        h[i, j] += 1e-6
    elif defect == "joining":
        assert h[i, k] == h[k, i] == 0
        h[i, k] = 0.3
    else:
        h[i, j] = np.nan if defect == "nan" else np.inf
    with pytest.raises(NotHermitian) as whole:
        require_hermitian(h)
    with pytest.raises(NotHermitian) as blockwise:
        hermitian_eig(h)
    assert str(blockwise.value) == str(whole.value)
    if defect == "inside":
        assert str(whole.value).startswith("max|H - H^dag| = 1.000e-06 ")
    if defect == "joining":
        assert str(whole.value).startswith("max|H - H^dag| = 3.000e-01 ")


def test_block_check_tolerates_roundoff():
    rng = np.random.default_rng(12)
    h, parts = permuted_block_diagonal(rng, [8] * 9, real=False)
    i, j, *_ = sorted(max(parts, key=len))
    h[i, j] += 1e-13 + 1e-13j
    es = hermitian_eig(h)
    assert sum(rows.shape[0] for rows, _, _ in es.blocks) > 1
    require_hermitian(h)


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


def test_hermiticity_check_peaks_at_one_copy_of_the_matrix():
    # one deviation array of h's size; a conjugate copy, a difference and an
    # absolute value would each add another
    h = build_aklt(3).h_s
    tracemalloc.start()
    try:
        require_hermitian(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * h.nbytes


def test_hermiticity_check_leaves_its_input_alone():
    rng = np.random.default_rng(12)
    for h in (rng.normal(size=(5, 5)), random_hermitian(rng, 5)):
        h = (h + h.conj().T) / 2
        kept = h.copy()
        require_hermitian(h)
        hermitian_eig(h)
        assert np.array_equal(h, kept)


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


@pytest.mark.parametrize(
    "h, t",
    [
        (np.diag([1e308, -1.0]), 31.4),
        (np.diag([-1.7e308, 2.0]), 2.0),
        (np.eye(2), float("nan")),
        (np.zeros((2, 2)), float("inf")),
    ],
)
def test_propagator_refuses_phases_that_are_not_finite(h, t):
    # max|E| * t overflows or is undefined: refused before any phase is formed
    with pytest.raises(ValueError, match=r"max\|E\| = .*, t = "):
        propagator(h, t)


def test_propagator_takes_the_largest_finite_phase():
    u = propagator(np.diag([1e308, 0.0]), 1.0)
    assert np.isfinite(u).all()
    assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


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
        k = int(np.argmax(np.abs(v)))
        assert w[k] == abs(v[k])
        assert not np.signbit(w[k].imag)
        assert int(np.argmax(np.abs(w))) == k
        assert fidelity(v / np.linalg.norm(v), w / np.linalg.norm(w)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_align_global_phase_idempotent():
    v = np.exp(1j * 0.4) * np.array([0.6, 0.8], dtype=complex)
    w = align_global_phase(v)
    assert np.allclose(align_global_phase(w), w, atol=1e-14)


def test_an_empty_state_is_refused():
    with pytest.raises(DimensionMismatch, match="^empty state vector$"):
        as_state(np.zeros((0, 3)))


def test_aligning_a_zero_state_returns_a_copy():
    zero = np.zeros(4, dtype=complex)
    shown = align_global_phase(zero)
    assert np.array_equal(shown, zero) and not np.shares_memory(shown, zero)
