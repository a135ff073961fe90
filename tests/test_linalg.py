import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescool.hamiltonian import AlgorithmConfig, assemble_hamiltonian, split_parts
from rescool.linalg import (
    BLOCKWISE_MIN_DIM,
    BlockProduct,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    align_global_phase,
    fidelity,
    hermitian_eig,
    power_of_product,
    propagator,
    propagator_action,
    require_hermitian,
    require_normalized,
)
from rescool.models import build_aklt


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
        v = es.blocks[0][2][0]  # below BLOCKWISE_MIN_DIM: one block, eigh's own output
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
    # repeating the size list reaches the block path and gives equal-size blocks
    sizes = sizes * -(-BLOCKWISE_MIN_DIM // sum(sizes))
    rng = np.random.default_rng(seed)
    h, parts = permuted_block_diagonal(rng, sizes, real)
    n = h.shape[0]
    es = hermitian_eig(h)
    product = BlockProduct(es, n)
    v = np.column_stack([product.times(unit) for unit in np.eye(n)])  # column k of V is V e_k
    scale = np.linalg.norm(h, 2)
    assert np.isrealobj(v) == (not np.iscomplex(h).any())
    assert np.all(np.diff(es.eigenvalues) >= 0)
    assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-12 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12
    assert np.max(np.abs((v * es.eigenvalues) @ v.conj().T - h)) <= 1e-12 * scale
    # the partition is the components, and each eigenvector lives on its block
    found = {frozenset(block.tolist()) for rows, _, _ in es.blocks for block in rows}
    assert found == parts
    inside = np.zeros((n, n), dtype=bool)
    for rows, cols, _ in es.blocks:
        inside[rows[:, :, None], cols[:, None, :]] = True
    assert not v[~inside].any()
    w, q = np.linalg.eigh(h)
    dense = (q * np.exp(-1j * w * t)) @ q.conj().T
    u = propagator(h, t)
    assert np.max(np.abs(u - dense)) <= 1e-12
    inside[:] = False
    for rows, _, _ in es.blocks:
        inside[rows[:, :, None], rows[:, None, :]] = True
    assert not u[~inside].any()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=7),
    blockwise=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    t=st.floats(0.0, 10.0),
    data=st.data(),
)
def test_blockwise_step_matches_the_whole_matrix_oracle(sizes, blockwise, seed, real, t, data):
    # at most 7 blocks of at most 9 rows stay below BLOCKWISE_MIN_DIM; repeating
    # them crosses it.  The oracle is one eigh of the whole matrix, no partition.
    if blockwise:
        sizes = sizes * -(-BLOCKWISE_MIN_DIM // sum(sizes))
    rng = np.random.default_rng(seed)
    h, _ = permuted_block_diagonal(rng, sizes, real)
    dim = h.shape[0]
    assert (dim >= BLOCKWISE_MIN_DIM) == blockwise
    w, q = np.linalg.eigh(h)
    u = (q * np.exp(-1j * w * t)) @ q.conj().T
    for n in (data.draw(st.integers(1, dim)), dim):
        x = random_state(rng, n)
        assert np.max(np.abs(propagator_action(h, t, n)(x) - u[:, :n] @ x)) <= 1e-12


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 10.0),
    l=st.sampled_from([1, 2, 3, 17, 64]),
)
def test_power_of_product_works_on_the_union_of_both_partitions(sizes, seed, t, l):
    # b is cut into other blocks and shuffled apart from a, so neither
    # partition alone holds the product; only the union of the two does
    sizes = sizes * -(-BLOCKWISE_MIN_DIM // sum(sizes))
    n = sum(sizes)
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(n // 2), replace=False))
    a, parts_a = permuted_block_diagonal(rng, sizes, real=False)
    sizes_b = np.diff(cuts, prepend=0, append=n).tolist()
    b, parts_b = permuted_block_diagonal(rng, sizes_b, real=True)
    u_a = propagator(a, t)
    u_b = propagator(b, t)
    dense = np.linalg.matrix_power(u_a @ u_b, l)
    u = power_of_product(u_a, u_b, l)
    assert np.max(np.abs(u - dense)) <= 1e-12
    label = np.arange(n)
    for part in parts_a | parts_b:
        members = sorted(part)
        label[np.isin(label, label[members])] = label[members].min()
    assert not u[label[:, None] != label[None, :]].any()


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("shape", ["dense", "tridiagonal"])
def test_irreducible_matrix_gets_eighs_own_output(shape, real):
    rng = np.random.default_rng(8)
    n = 2 * BLOCKWISE_MIN_DIM
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


def test_register_blocks_are_the_structure_the_speed_up_needs():
    # exact zeros split the aklt3 register into 18 blocks and part_b into 2 x 2 pairs;
    # rounding noise in those zeros would merge them back into one dense eigh
    model = build_aklt(3)
    register = assemble_hamiltonian(model.h_s, 1.0, 0.05)
    blocks = hermitian_eig(register).blocks
    assert sum(rows.shape[0] for rows, _, _ in blocks) == 18
    assert max(rows.shape[1] for rows, _, _ in blocks) == 140
    _, part_b = split_parts(model, AlgorithmConfig(epsilon0=1.0, coupling=0.05))
    (rows, _, _), = hermitian_eig(part_b).blocks
    assert rows.shape == (512, 2)


def test_small_matrices_take_one_eigh():
    h = np.diag(np.arange(BLOCKWISE_MIN_DIM - 1.0))
    es = hermitian_eig(h)
    assert len(es.blocks) == 1 and es.blocks[0][0].shape == (1, h.shape[0])
    assert np.array_equal(es.eigenvalues, np.linalg.eigh(h)[0])


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
    assert h.shape[0] >= BLOCKWISE_MIN_DIM
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
