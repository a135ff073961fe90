import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from rescool.cli import main
from rescool.hamiltonian import AlgorithmConfig, assemble_hamiltonian, split_parts, write_atomic
from rescool.linalg import (
    DimensionMismatch,
    NotHermitian,
    propagator,
)
from rescool.models import (
    SizeCap,
    SystemModel,
    build_aklt,
    build_diagonal,
    load_matrix_file,
    save_matrix_file,
)

# The test's own operators, so the Kronecker reference shares no code with src/.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])
PROJ_0 = np.diag([1.0, 0.0])
PROJ_1 = np.diag([0.0, 1.0])


def random_model(rng, n_qubits):
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return SystemModel((a + a.conj().T) / 2)


def register_hamiltonian(model, cfg):
    return assemble_hamiltonian(model.h_s, cfg.epsilon0, cfg.coupling)


def level_block(cfg, e_j):
    # the paper's 2x2 block on {|00 chi_j>, |11 chi_j>}
    return np.array(
        [[cfg.epsilon0 - 0.5, cfg.coupling], [cfg.coupling, 0.5 + e_j]], dtype=complex
    )


def register_basis_state(chi, ancillas):
    # ancillas in {"00", "01", "10", "11"}; probe bit is most significant
    n_dim = chi.size
    out = np.zeros(4 * n_dim, dtype=complex)
    offset = (int(ancillas[0]) * 2 + int(ancillas[1])) * n_dim
    out[offset : offset + n_dim] = chi
    return out


def kron_register(h_s, eps0, c):
    # H = -1/2 Z (x) I_2N + I_2 (x) H_R + c X (x) X (x) I_N, H_R = eps0 P0 (x) I_N + P1 (x) H_S
    n_dim = h_s.shape[0]
    eye_n = np.eye(n_dim)
    h_r = np.kron(PROJ_0, eps0 * eye_n) + np.kron(PROJ_1, h_s)
    return (
        np.kron(-0.5 * PAULI_Z, np.eye(2 * n_dim))
        + np.kron(np.eye(2), h_r)
        + c * np.kron(np.kron(PAULI_X, PAULI_X), eye_n)
    )


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n_qubits", [1, 2])
@pytest.mark.parametrize("eps0, c", [(1.0, 0.05), (0.3, 0.0), (-2.5, 1.7)])
def test_single_qubit_assembly_matches_kron_by_hand(kind, n_qubits, eps0, c):
    rng = np.random.default_rng(9 + n_qubits)
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(dim, dim))
    h_s = (a + a.conj().T) / 2
    full = assemble_hamiltonian(h_s, eps0, c)
    assert full.shape == (4 * dim, 4 * dim)
    assert full.dtype == (np.float64 if kind == "real" else np.complex128)
    assert np.array_equal(full, kron_register(h_s, eps0, c))


def test_aklt3_assembly_peaks_at_most_12_mib():
    # one 1024 x 1024 float64 register is 8 MiB and its 256 x 256 blocks add 3;
    # a separate coupling array would add 8 more, complex temporaries double it
    h_s = build_aklt(3).h_s
    tracemalloc.start()
    try:
        full = assemble_hamiltonian(h_s, 1.0, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert full.shape == (1024, 1024)
    assert peak <= 12 * 2**20


def test_aklt4_build_peaks_at_most_28_mib():
    # the 1024 x 1024 float64 H_S is 8 MiB; accumulating it as complex doubled the peak to 48 MiB
    tracemalloc.start()
    try:
        model = build_aklt(4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.h_s.dtype == np.float64
    assert peak <= 28 * 2**20


def eye_register(h_s, eps0, c):
    # the blocks as x * I and h_s -+ I/2 give them, signed zeros included
    n_dim = h_s.shape[0]
    eye = np.eye(n_dim)
    z = np.zeros((n_dim, n_dim))
    return np.block(
        [
            [(eps0 - 0.5) * eye, z, z, c * eye],
            [z, h_s - 0.5 * eye, c * eye, z],
            [z, c * eye, (eps0 + 0.5) * eye, z],
            [c * eye, z, z, h_s + 0.5 * eye],
        ]
    )


def test_register_is_written_in_place_bit_for_bit():
    # eps0 < 1/2 puts -0.0 off the 00 block's diagonal, and h_s + 1/2 I turns
    # a -0.0 entry of h_s into 0.0; the in-place blocks keep both
    rng = np.random.default_rng(21)
    for kind in ("real", "complex"):
        a = rng.normal(size=(4, 4))
        if kind == "complex":
            a = a + 1j * rng.normal(size=(4, 4))
        h_s = (a + a.conj().T) / 2
        h_s[0, 1] = h_s[1, 0] = -0.0
        h_s[2, 2] = -0.0
        for eps0, c in ((1.0, 0.05), (0.3, 0.0), (0.5, 1.7), (-1.0, 0.05)):
            want = eye_register(h_s, eps0, c)
            full = assemble_hamiltonian(h_s, eps0, c)
            assert full.dtype == want.dtype and full.tobytes() == want.tobytes()
            part_a, part_b = split_parts(h_s, eps0, c)
            assert part_a.tobytes() == eye_register(h_s, eps0, 0.0).tobytes()
            assert np.array_equal(part_a + part_b, full)
    # no N x N temporary: the aklt3 assembly peaks at its own 8 MiB register
    h_s = build_aklt(3).h_s
    tracemalloc.start()
    try:
        full = assemble_hamiltonian(h_s, 1.0, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= full.nbytes + 2**19


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_assembled_hamiltonian_is_hermitian(n_qubits):
    rng = np.random.default_rng(10 + n_qubits)
    for _ in range(5):
        model = random_model(rng, n_qubits)
        cfg = AlgorithmConfig(epsilon0=rng.uniform(0.5, 1.5), coupling=0.05)
        h = register_hamiltonian(model, cfg)
        assert np.allclose(h, h.conj().T, atol=1e-12)


def test_ancilla_sectors_are_exactly_decoupled():
    # no matrix element connects {|00>, |11>} to {|01>, |10>}
    rng = np.random.default_rng(12)
    model = random_model(rng, 2)
    cfg = AlgorithmConfig(epsilon0=1.3, coupling=0.07)
    h = register_hamiltonian(model, cfg)
    n_dim = model.dimension
    inside = [0, 3]
    outside = [1, 2]
    for a in inside:
        for b in outside:
            blk = h[a * n_dim : (a + 1) * n_dim, b * n_dim : (b + 1) * n_dim]
            assert np.all(blk == 0)


def test_evolution_preserves_sector_weight():
    rng = np.random.default_rng(13)
    model = random_model(rng, 1)
    cfg = AlgorithmConfig(epsilon0=0.9, coupling=0.05)
    h = register_hamiltonian(model, cfg)
    u = propagator(h, cfg.tau)
    _, vecs = np.linalg.eigh(model.h_s)
    psi = (
        register_basis_state(vecs[:, 0], "00") + 1j * register_basis_state(vecs[:, 1], "11")
    ) / np.sqrt(2)
    evolved = u @ psi
    n_dim = model.dimension
    weight_out = float(
        np.sum(np.abs(evolved[n_dim : 3 * n_dim]) ** 2)
    )
    assert weight_out <= 1e-18


def test_blocks_reproduce_restricted_hamiltonian():
    rng = np.random.default_rng(14)
    for trial in range(5):
        model = random_model(rng, 2)
        cfg = AlgorithmConfig(epsilon0=rng.uniform(0.5, 2.0), coupling=0.05)
        h = register_hamiltonian(model, cfg)
        energies, vecs = np.linalg.eigh(model.h_s)
        for j, e_j in enumerate(energies):
            v0 = register_basis_state(vecs[:, j], "00")
            v1 = register_basis_state(vecs[:, j], "11")
            basis = np.column_stack([v0, v1])
            restricted = basis.conj().T @ h @ basis
            assert np.allclose(restricted, level_block(cfg, e_j), atol=1e-10)


def test_block_exponential_matches_full_propagator():
    rng = np.random.default_rng(15)
    model = random_model(rng, 2)
    cfg = AlgorithmConfig(epsilon0=1.1, coupling=0.05)
    h = register_hamiltonian(model, cfg)
    u = propagator(h, cfg.tau)
    energies, vecs = np.linalg.eigh(model.h_s)
    for j, e_j in enumerate(energies):
        u_blk = propagator(level_block(cfg, e_j), cfg.tau)
        v0 = register_basis_state(vecs[:, j], "00")
        v1 = register_basis_state(vecs[:, j], "11")
        evolved = u @ v0
        assert abs(v0.conj() @ evolved - u_blk[0, 0]) < 1e-9
        assert abs(v1.conj() @ evolved - u_blk[1, 0]) < 1e-9


def test_resonant_block_has_equal_diagonal():
    model = build_aklt(1)
    energies, vecs = np.linalg.eigh(model.h_s)
    cfg = AlgorithmConfig(epsilon0=float(energies[0]) + 1.0, coupling=0.05)
    basis = np.column_stack(
        [register_basis_state(vecs[:, 0], "00"), register_basis_state(vecs[:, 0], "11")]
    )
    blk = basis.conj().T @ register_hamiltonian(model, cfg) @ basis
    assert blk[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert blk[1, 1] == pytest.approx(0.5, abs=1e-9)


def test_zero_coupling_blocks_are_diagonal():
    model = build_diagonal([0.0, 2.0])
    h = assemble_hamiltonian(model.h_s, 1.0, 0.0)
    assert np.allclose(h, np.diag(np.diag(h)), atol=0)


def test_split_parts_sum_to_full_hamiltonian():
    rng = np.random.default_rng(16)
    model = random_model(rng, 2)
    cfg = AlgorithmConfig(epsilon0=0.8, coupling=0.12)
    part_a, part_b = split_parts(model.h_s, cfg.epsilon0, cfg.coupling)
    # assemble_hamiltonian adds the same two parts in the same order
    assert np.array_equal(part_a + part_b, register_hamiltonian(model, cfg))
    # the transverse coupling never touches the diagonal
    assert np.all(np.diag(part_b) == 0)
    assert np.linalg.norm(part_b) == pytest.approx(
        0.12 * np.linalg.norm(np.kron(PAULI_X, PAULI_X)) * np.sqrt(model.dimension),
        rel=1e-12,
    )


def test_config_tau_defaults_to_half_period():
    cfg = AlgorithmConfig(epsilon0=1.0, coupling=0.05)
    assert cfg.tau == pytest.approx(np.pi / 0.1, abs=1e-12)
    cfg2 = AlgorithmConfig(epsilon0=1.0, coupling=0.05, tau=7.0)
    assert cfg2.tau == 7.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"coupling": 0.0},
        {"coupling": -0.1},
        {"coupling": 0.05, "tau": -1.0},
        {"coupling": float("nan")},
        {"coupling": 0.05, "max_iterations": -1},
        {"coupling": 0.05, "restart_cap": -1},
        {"coupling": 0.05, "mode": "adaptive"},
        {"coupling": float("inf"), "tau": 1.0},
        {"coupling": 0.05, "tau": float("inf")},
        {"coupling": 0.05, "tau": float("nan")},
        {"coupling": 0.05, "epsilon0": float("nan")},
        {"coupling": 0.05, "trotter_steps": -5},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        AlgorithmConfig(**{"epsilon0": 1.0, **kwargs})


def test_config_refuses_more_iterations_than_the_cap():
    # every iteration keeps a state, so the count is refused before a run exists
    from rescool.hamiltonian import ITERATIONS_CAP

    AlgorithmConfig(epsilon0=1.0, coupling=0.05, max_iterations=ITERATIONS_CAP)
    over = ITERATIONS_CAP + 1
    with pytest.raises(ValueError, match=f"^need 0 to {ITERATIONS_CAP} iterations, got {over}$"):
        AlgorithmConfig(epsilon0=1.0, coupling=0.05, max_iterations=over)


def test_config_refuses_more_restarts_than_the_cap():
    # every draw keeps a record until the run ends, so the budget is refused before a run exists
    from rescool.hamiltonian import RESTARTS_CAP

    AlgorithmConfig(epsilon0=1.0, coupling=0.05, restart_cap=RESTARTS_CAP)
    for bad in (RESTARTS_CAP + 1, -1):
        with pytest.raises(ValueError, match=f"^need 0 to {RESTARTS_CAP} restarts, got {bad}$"):
            AlgorithmConfig(epsilon0=1.0, coupling=0.05, restart_cap=bad)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(AlgorithmConfig)])
def test_a_built_config_cannot_be_changed(field):
    # every cap and the mode are checked once, at construction, so no field may move after it
    cfg = AlgorithmConfig(epsilon0=1.0, coupling=0.05, mode="stochastic")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, getattr(cfg, field))
    assert cfg == AlgorithmConfig(epsilon0=1.0, coupling=0.05, mode="stochastic")


def test_system_model_validates_inputs():
    with pytest.raises(NotHermitian):
        SystemModel(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitian):
        SystemModel(np.diag([0.0, np.nan]))
    with pytest.raises(DimensionMismatch):
        SystemModel(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch):
        SystemModel(np.zeros(4))


@pytest.mark.parametrize("k", range(1, 11))
def test_system_model_reads_its_qubit_count_off_h_s(k):
    model = SystemModel(np.diag(np.arange(2.0**k)), label=f"levels{k}")
    assert model.dimension == 2**k
    assert model.n_qubits == k


@pytest.mark.parametrize("n_dim", [1, 3, 5, 6, 12])
def test_system_model_rejects_a_dimension_other_than_two_to_the_n(n_dim):
    with pytest.raises(DimensionMismatch, match=rf"^odd-model is {n_dim}-dimensional,"):
        SystemModel(np.eye(n_dim), label="odd-model")


def test_system_model_checks_the_size_cap_before_copying_h_s():
    # a zero-stride view of 2^22 entries costs 8 bytes; any copy would cost 32 MiB
    big = np.broadcast_to(0.0, (2**11, 2**11))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap):
            SystemModel(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = (a + a.conj().T) / 2
    path = str(tmp_path / "m.txt")
    save_matrix_file(path, m)
    assert np.array_equal(load_matrix_file(path), m)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n0,0 0,0\n0,0 0,0\n",
        "dim x\n",
        "dim 2\n0,0 0,0\n",
        "dim 2\n0,0\n0,0 0,0\n",
        "dim 2\n0,0 nope\n0,0 0,0\n",
    ],
)
def test_matrix_file_rejects_malformed_input(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        load_matrix_file(str(path))


def test_save_matrix_file_rejects_non_square(tmp_path):
    with pytest.raises(DimensionMismatch):
        save_matrix_file(str(tmp_path / "m.txt"), np.zeros((2, 3)))


def test_save_matrix_file_keeps_the_old_file_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "m.txt"
    save_matrix_file(str(path), np.eye(2))
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_matrix_file(str(path), 2.0 * np.eye(2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.txt"]


def test_atomic_writes_get_the_mode_open_would_give(tmp_path, capsys):
    # mkstemp creates a private file; the written file must follow the umask
    matrix_path = tmp_path / "m.txt"
    report_path = tmp_path / "report.txt"
    old_umask = os.umask(0o022)
    try:
        save_matrix_file(str(matrix_path), np.eye(2))
        args = "cool --model aklt1 --init 1100 --epsilon0 1.0 --iters 0 --out".split()
        code = main(args + [str(report_path)])
    finally:
        os.umask(old_umask)
    capsys.readouterr()
    assert code == 0
    assert oct(os.stat(matrix_path).st_mode & 0o777) == oct(0o644)
    assert oct(os.stat(report_path).st_mode & 0o777) == oct(0o644)


def test_an_error_that_is_not_an_os_error_is_raised_unchanged(tmp_path):
    # a body that is not ASCII fails in the write: no file, no temporary file, the same error
    path = tmp_path / "report.txt"
    with pytest.raises(UnicodeEncodeError):
        write_atomic(str(path), "E_1 = √2\n")
    assert list(tmp_path.iterdir()) == []
