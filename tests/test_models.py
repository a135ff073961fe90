import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescool import models
from rescool.linalg import DimensionMismatch, hermitian_eig
from rescool.models import (
    SizeCap,
    SystemModel,
    build_aklt,
    build_diagonal,
    from_registry,
    ground_truth,
    save_matrix_file,
    valence_bond_state,
)

GROUND_SLOT_PLUS = (3, 5, 10, 12)
GROUND_SLOT_MINUS = (6, 9)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


def chain_ground_vector():
    v = np.zeros(16, dtype=complex)
    v[list(GROUND_SLOT_PLUS)] = 1.0 / np.sqrt(12.0)
    v[list(GROUND_SLOT_MINUS)] = -1.0 / np.sqrt(3.0)
    return v


def kron_all(*ops):
    out = np.eye(1)
    for op in ops:
        out = np.kron(out, op)
    return out


def embedded_swap(n_qubits, first):
    # swap of qubits (first, first + 1), qubit 0 most significant
    return kron_all(np.eye(2**first), SWAP, np.eye(2 ** (n_qubits - first - 2)))


def pauli_reference_aklt(n_bulk):
    # the build_aklt docstring formula from spin matrices and Kronecker products
    sx = np.array([[0, 1], [1, 0]]) / 2
    sy = np.array([[0, -1j], [1j, 0]]) / 2
    sz = np.array([[1, 0], [0, -1]]) / 2
    eye2 = np.eye(2)
    small = (sx, sy, sz)
    big = tuple(np.kron(s, eye2) + np.kron(eye2, s) for s in small)
    n_qubits = 2 * n_bulk + 2

    def place(op, first):
        span = op.shape[0].bit_length() - 1
        return kron_all(np.eye(2**first), op, np.eye(2 ** (n_qubits - first - span)))

    def dot(a_ops, b_ops):
        return sum(np.kron(a, b) for a, b in zip(a_ops, b_ops))

    bond = dot(big, big)
    h = place((2 / 3) * (np.eye(8) + dot(small, big)), 0)
    h = h + place((2 / 3) * (np.eye(8) + dot(big, small)), n_qubits - 3)
    for k in range(1, n_bulk):
        h = h + place(bond + bond @ bond / 3 + (2 / 3) * np.eye(16), 2 * k - 1)
    return h


def test_three_spin_chain_spectrum():
    model = build_aklt(1)
    assert model.n_qubits == 4
    assert model.label == "aklt1"
    es = hermitian_eig(model.h_s)
    levels, counts = np.unique(np.round(es.eigenvalues, 6), return_counts=True)
    assert np.allclose(levels, [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0], atol=1e-6)
    assert list(counts) == [1, 3, 7, 5]


def test_three_spin_chain_ground_vector():
    model = build_aklt(1)
    e1, chi1, gaps = ground_truth(model)
    assert abs(e1) < 1e-8
    assert chi1.ndim == 1
    target = chain_ground_vector()
    overlap = abs(target.conj() @ chi1) ** 2
    assert overlap == pytest.approx(1.0, abs=1e-8)
    assert gaps[0] == 0.0
    assert gaps[1] == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_valence_bond_state_is_the_hand_typed_chain_ground_vector():
    target = chain_ground_vector()
    state = valence_bond_state(1)
    z = np.vdot(target, state)
    assert np.max(np.abs(state * (z.conjugate() / abs(z)) - target)) <= 1e-15


@pytest.mark.parametrize("n_bulk", [3, 4, 5])
def test_valence_bond_state_has_string_order_minus_four_ninths(n_bulk):
    # <S^z_i exp(i pi sum_{i<k<j} S^z_k) S^z_j> = -4/9 at every distance
    # (den Nijs and Rommelse, PRB 40, 4709 (1989)); aklt5 is above the size
    # cap of build_aklt, but the state still builds.  Every factor is
    # diagonal, so the correlator is a weighted sum over basis states.
    n_qubits = 2 * n_bulk + 2
    x = np.arange(2**n_qubits)

    def bit(q):  # qubit 0 most significant
        return (x >> (n_qubits - 1 - q)) & 1

    # site k lives on qubits 2k-1 and 2k; S^z = 1 - (number of set bits)
    sz = {k: 1 - bit(2 * k - 1) - bit(2 * k) for k in range(1, n_bulk + 1)}
    weights = np.abs(valence_bond_state(n_bulk)) ** 2
    for i in range(1, n_bulk + 1):
        for j in range(i + 1, n_bulk + 1):
            string = sum((sz[k] for k in range(i + 1, j)), np.zeros_like(x))
            correlator = weights @ (sz[i] * (-1.0) ** string * sz[j])
            assert correlator == pytest.approx(-4.0 / 9.0, abs=1e-12)


def neel_init(n_bulk):
    # left end 0, spin-1 pairs alternating 11 / 00, right end alternating: 0110, 011001, ...
    pairs = "".join("11" if k % 2 else "00" for k in range(1, n_bulk + 1))
    return "0" + pairs + ("0" if n_bulk % 2 else "1")


@pytest.mark.parametrize("n_bulk", range(1, 8))
def test_neel_init_carries_the_valence_bond_weight(n_bulk):
    # d1_sq of the reference inits, |<init|AKLT>|^2 = (1/2)(2/3)^n, read off
    # the valence-bond state with no diagonalization; n = 7 is 16 qubits
    init = neel_init(n_bulk)
    assert len(init) == 2 * n_bulk + 2
    weight = abs(valence_bond_state(n_bulk)[int(init, 2)]) ** 2
    assert abs(weight - 0.5 * (2.0 / 3.0) ** n_bulk) <= 1e-12


# the rotation of one spin-1 pair from (00, 01, 10, 11) to (00, T0, S, 11)
PAIR_Q = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1]]) * np.array(
    [1, np.sqrt(0.5), np.sqrt(0.5), 1]
)


def refuse_dense(n_bulk):
    raise AssertionError("the dense AKLT H_S was formed")


@pytest.mark.parametrize("n_bulk", [1, 2, 3, 4])
def test_pair_basis_solve_matches_the_dense_oracle(n_bulk):
    model = build_aklt(n_bulk)
    es = model.spectrum
    h = model.h_s
    assert np.max(np.abs(es.eigenvalues - np.linalg.eigvalsh(h))) <= 1e-13
    # every eigenvector combine returns, in block order, solves the dense H_S
    vecs = es.combine(np.eye(model.dimension))
    assert np.max(np.linalg.norm(h @ vecs - vecs * es.energies, axis=0)) <= 1e-12
    rng = np.random.default_rng(n_bulk)
    x = rng.normal(size=model.dimension) + 1j * rng.normal(size=model.dimension)
    assert np.max(np.abs(es.combine(es.overlaps(x)[1]) - x)) <= 1e-14
    # the rotation is I (x) q (x) ... (x) q (x) I
    q = kron_all(np.eye(2), *[PAIR_Q] * n_bulk, np.eye(2))
    assert np.max(np.abs(es.rotation(np.eye(model.dimension)) - q)) <= 1e-16


@pytest.mark.parametrize("n_bulk, largest", [(1, 4), (2, 10), (3, 26), (4, 70)])
def test_pair_basis_blocks_are_the_singlet_and_s_z_sectors(monkeypatch, n_bulk, largest):
    # which pairs hold a singlet (2^n), and S_z: 3^(n+1) blocks in all; none
    # of it, nor dimension or n_qubits, forms the dense H_S
    monkeypatch.setattr(models, "_dense_aklt", refuse_dense)
    model = build_aklt(n_bulk)
    assert model.dimension == 4 ** (n_bulk + 1) and model.n_qubits == 2 * n_bulk + 2
    es = model.spectrum
    sizes = [rows.shape[1] for rows, _, _ in es.blocks for _ in rows]
    assert len(sizes) == 3 ** (n_bulk + 1)
    assert max(sizes) == largest
    assert sum(sizes) == model.dimension
    # a Neel-type init is a pair-basis state, so its overlaps fill one block
    phi = np.zeros(model.dimension, dtype=complex)
    phi[int(neel_init(n_bulk), 2)] = 1.0
    _, d = es.overlaps(phi)
    block = np.repeat(np.arange(len(sizes)), sizes)
    assert np.unique(block[np.flatnonzero(d)]).size == 1
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-14)


def test_comparing_hashing_or_printing_a_chain_forms_no_dense_h_s(monkeypatch):
    # a model compares and hashes by identity, and a chain's repr names its label
    monkeypatch.setattr(models, "_dense_aklt", refuse_dense)
    model = build_aklt(2)
    assert repr(model) == "_Chain('aklt2')"
    assert model == model and model != build_aklt(2)
    assert len({model, model, build_aklt(2)}) == 2
    assert "h_s" not in vars(model)
    diag = build_diagonal([0.0, 1.0])
    assert diag == diag and diag != build_diagonal([0.0, 1.0]) and hash(diag) == hash(diag)


def refuse_solve(*args):
    raise AssertionError("a spectrum was solved")


@pytest.mark.parametrize(
    "build, text, dimension, n_qubits",
    [
        (lambda: build_aklt(2), "_Chain('aklt2')", 64, 6),
        (lambda: SystemModel(np.diag(np.arange(4.0)), "levels2"), "SystemModel('levels2')", 4, 2),
    ],
    ids=["chain", "matrix"],
)
def test_a_model_prints_by_label_and_compares_by_identity_without_solving(
    monkeypatch, build, text, dimension, n_qubits
):
    # one repr, ==, hash, dimension and n_qubits serve both kinds of model
    monkeypatch.setattr(models, "_dense_aklt", refuse_dense)
    monkeypatch.setattr(models, "hermitian_eig", refuse_solve)
    monkeypatch.setattr(models, "solve_entries", refuse_solve)
    model, twin = build(), build()
    assert repr(model) == str(model) == text
    assert model == model and model != twin and hash(model) == hash(model)
    assert len({model, model, twin}) == 2
    assert (model.dimension, model.n_qubits) == (dimension, n_qubits)
    assert "spectrum" not in vars(model)


def test_three_spin_chain_singlet_sector():
    # a singlet on the middle pair scores 4/3 regardless of the edge qubits
    model = build_aklt(1)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    for a in range(2):
        for b in range(2):
            ea = np.zeros(2, dtype=complex)
            eb = np.zeros(2, dtype=complex)
            ea[a] = 1.0
            eb[b] = 1.0
            v = np.kron(np.kron(ea, singlet), eb)
            assert np.linalg.norm(model.h_s @ v - (4.0 / 3.0) * v) < 1e-10


def test_swap_inside_a_spin_one_site_is_a_symmetry():
    # the single bulk site of aklt1 lives on qubits 1-2; aklt2 adds one on 3-4
    swap = embedded_swap(4, 1)
    model = build_aklt(1)
    assert np.linalg.norm(swap @ model.h_s - model.h_s @ swap) < 1e-10
    model2 = build_aklt(2)
    for first in (1, 3):
        swap2 = embedded_swap(6, first)
        assert np.linalg.norm(swap2 @ model2.h_s - model2.h_s @ swap2) < 1e-10


@pytest.mark.parametrize("n_bulk", [1, 2, 3, 4])
def test_aklt_entries_are_exact_twelfths(n_bulk):
    twelve_h = 12 * build_aklt(n_bulk).h_s
    assert np.array_equal(twelve_h, np.round(twelve_h))


@pytest.mark.parametrize("n_bulk", [1, 2, 3, 4])
def test_aklt_conserves_the_number_of_up_qubits(n_bulk):
    h = build_aklt(n_bulk).h_s
    weight = np.array([bin(x).count("1") for x in range(h.shape[0])])
    rows, cols = np.nonzero(h)
    assert rows.size > 0
    assert np.array_equal(weight[rows], weight[cols])


@pytest.mark.parametrize("n_bulk", [1, 2, 3])
def test_aklt_matches_a_pauli_reference(n_bulk):
    reference = pauli_reference_aklt(n_bulk)
    assert np.max(np.abs(build_aklt(n_bulk).h_s - reference)) < 1e-14


def test_five_spin_chain_is_frustration_free():
    model = build_aklt(2)
    es = hermitian_eig(model.h_s)
    assert abs(es.eigenvalues[0]) < 1e-8
    assert np.all(es.eigenvalues > -1e-9)


def test_size_cap_blocks_oversized_chains(tmp_path):
    # the cap is on the 4N register the dense path builds: aklt4 (4N = 4096)
    # is the largest chain allowed, and aklt5, a 2048-level diag: model and a
    # "dim 2048" matrix file are refused before any allocation
    path = tmp_path / "big.txt"
    path.write_text("dim 2048\n0,0 0,0\n")
    tracemalloc.start()
    try:
        for name in ("aklt5", "aklt7", "diag:" + ",".join(["0"] * 2048), f"file:{path}"):
            with pytest.raises(SizeCap):
                from_registry(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_build_diagonal_levels():
    model = build_diagonal([0.3, 2.0, 3.0, 5.0])
    assert model.n_qubits == 2
    assert np.allclose(model.h_s, np.diag([0.3, 2.0, 3.0, 5.0]))
    e1, chi1, gaps = ground_truth(model)
    assert e1 == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(gaps, [0.0, 1.7, 2.7, 4.7], atol=1e-12)
    assert abs(chi1[0]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "levels, message",
    [
        ([], "expected a non-empty matrix"),
        ([1.0], "diag:1 is 1-dimensional"),
        ([0.0, 1.0, 2.0], "diag:0,1,2 is 3-dimensional"),
        ([0.0] * 5, "diag:0,0,0,0,0 is 5-dimensional"),
    ],
)
def test_build_diagonal_rejects_bad_lengths(levels, message):
    with pytest.raises(DimensionMismatch, match=f"^{message}"):
        build_diagonal(levels)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 4, 8]).flatmap(
        lambda n: st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    )
)
@example([0.0, 1.23456789, 2.5, 3.000000001])
@example([0.0, 1e-07])
@example([-0.0, 1.0])
def test_diagonal_label_reads_back_the_same_levels(levels):
    model = build_diagonal(levels)
    assert np.array_equal(from_registry(model.label).h_s, model.h_s)


@pytest.mark.parametrize(
    "levels, label",
    [
        ([0, 2], "diag:0,2"),
        ([-2, 0], "diag:-2,0"),
        ([0, 1e-7], "diag:0,1e-07"),
        ([1e300, 2], "diag:1e+300,2"),
        ([-0.0, 1], "diag:-0,1"),
        ([0, 1.23456789, 2.5, 3.000000001], "diag:0,1.23456789,2.5,3.000000001"),
    ],
)
def test_diagonal_label_is_short_where_that_reads_back(levels, label):
    assert build_diagonal(levels).label == label


def test_degenerate_ground_space_is_reported_as_a_basis():
    model = build_diagonal([0.0, 0.0, 1.0, 2.0])
    e1, chi1, gaps = ground_truth(model)
    assert e1 == 0.0
    assert chi1.ndim == 2
    assert chi1.shape == (4, 2)
    # orthonormal ground basis
    assert np.allclose(chi1.conj().T @ chi1, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("name", ["aklt1", "aklt2", "diag:0,2,0,1", "diag:1,1,1,1"])
def test_ground_vectors_are_their_block_columns_exactly(name):
    # combine on one-hot overlaps copies each ground eigenvector out of its
    # block with no rounding, as a complex128 state; a chain's block columns
    # are in the pair basis, and its rotation takes them to the qubit basis
    model = from_registry(name)
    es = model.spectrum
    assert (es.rotation is None) == name.startswith("diag:")
    columns = []
    for rows, energies, vecs in es.blocks:
        for b, j in zip(*np.nonzero(energies - es.eigenvalues[0] <= 1e-9)):
            chi = np.zeros(model.dimension, dtype=complex)
            chi[rows[b]] = vecs[b, :, j]
            columns.append(chi if es.rotation is None else es.rotation(chi))
    e1, chi1, gaps = ground_truth(model)
    assert chi1.dtype == np.complex128
    assert np.array_equal(chi1, np.stack(columns, axis=1) if len(columns) > 1 else columns[0])
    assert e1 == es.eigenvalues[0] and np.array_equal(gaps, es.eigenvalues - e1)


def test_ground_truth_against_characteristic_polynomial():
    # independent eigenvalue route: roots of det(H - x I)
    rng = np.random.default_rng(20240820)
    for _ in range(5):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h = (a + a.conj().T) / 2
        h /= np.linalg.norm(h)
        es = hermitian_eig(h)
        roots = np.sort(np.roots(np.poly(h)).real)
        assert np.max(np.abs(roots - es.eigenvalues)) < 1e-8


def test_registry_resolves_chain_names():
    model = from_registry("aklt1")
    assert model.label == "aklt1"
    assert model.dimension == 16


def test_registry_resolves_diagonal_names():
    model = from_registry("diag:0,2")
    assert np.allclose(model.h_s, np.diag([0.0, 2.0]))
    assert model.label == "diag:0,2"


def test_registry_loads_matrix_files(tmp_path):
    rng = np.random.default_rng(23)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    path = tmp_path / "h.txt"
    save_matrix_file(str(path), h)
    model = from_registry(f"file:{path}")
    assert model.n_qubits == 2
    assert np.allclose(model.h_s, h, atol=1e-15)


def test_model_h_s_is_real_exactly_when_its_imaginary_part_is_zero(tmp_path):
    real = np.diag([1.0, 2.0, 3.0, 4.0])
    real[0, 1] = real[1, 0] = 0.5
    complex_h = real.astype(complex)
    complex_h[0, 1] += 0.25j
    complex_h[1, 0] -= 0.25j
    paths = {}
    for name, h in (("real", real), ("complex", complex_h)):
        paths[name] = tmp_path / f"{name}.txt"
        save_matrix_file(str(paths[name]), h)
    for name in ("aklt1", "diag:0,1,1,3", f"file:{paths['real']}"):
        model = from_registry(name)
        assert model.h_s.dtype == np.float64, name
        assert model.h_s.flags.c_contiguous
    model = from_registry(f"file:{paths['complex']}")
    assert model.h_s.dtype == np.complex128
    assert np.array_equal(model.h_s, complex_h)


def test_registry_rejects_non_power_of_two_files(tmp_path):
    path = tmp_path / "h3.txt"
    save_matrix_file(str(path), np.eye(3))
    name = f"file:{path}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(name)} is 3-dimensional,"):
        from_registry(name)


@pytest.mark.parametrize("name", ["diag:", "diag:,,", "diag:0,,2", "diag:0,2,", "diag:,0,2"])
def test_registry_rejects_empty_levels(name):
    # every comma-separated token is a level; an empty one is not silently dropped
    message = f"bad level list in model name {name!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_registry(name)


@pytest.mark.parametrize(
    "name",
    ["", "aklt", "akltx", "aklt0", "ising2", "diag:"]
    + ["aklt+1", "aklt 1", "aklt01", "aklt1 ", "aklt1_0"],
)
def test_registry_rejects_unknown_names(name):
    with pytest.raises(ValueError):
        from_registry(name)
