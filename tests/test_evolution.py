import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescool.cooling import run_algorithm
from rescool.evolution import block_amplitudes, step_propagator, trotter_propagator
from rescool.hamiltonian import AlgorithmConfig, SystemModel, assemble_hamiltonian, split_parts
from rescool.linalg import DimensionMismatch, NotHermitian, hermitian_eig, propagator
from rescool.models import build_aklt, build_diagonal, ground_truth
from rescool.sweep import SweepConfig, scan


def resonant_config(e1, c, **kwargs):
    return AlgorithmConfig(epsilon0=e1 + 1.0, coupling=c, **kwargs)


def exact_step(model, cfg):
    # the dense reference: exp(-i H tau) of the whole register
    return propagator(assemble_hamiltonian(model.h_s, cfg.epsilon0, cfg.coupling), cfg.tau)


def block_matrix(e1, ej, c):
    return np.array([[e1 + 0.5, c], [c, 0.5 + ej]], dtype=complex)


def resonant_amplitudes(e1, ej, c):
    # one step on the resonance eps0 = E_1 + 1 for the half period pi/(2c)
    return block_amplitudes(ej, e1 + 1.0, c, np.pi / (2.0 * c))


def test_amplitudes_match_block_exponential():
    # closed form against the numerically exponentiated 2x2 block
    rng = np.random.default_rng(20240813)
    for _ in range(200):
        e1 = rng.uniform(-2.0, 2.0)
        ej = e1 + rng.uniform(0.0, 5.0)
        c = rng.uniform(1e-3, 0.2)
        c_j0, c_j1 = resonant_amplitudes(e1, ej, c)
        col = propagator(block_matrix(e1, ej, c), np.pi / (2.0 * c))[:, 0]
        assert abs(c_j0 - col[0]) < 1e-9
        assert abs(c_j1 - col[1]) < 1e-9


def test_amplitudes_conserve_probability():
    rng = np.random.default_rng(21)
    for _ in range(100):
        c_j0, c_j1 = resonant_amplitudes(
            rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 6.0), rng.uniform(1e-3, 0.3)
        )
        assert abs(c_j0) ** 2 + abs(c_j1) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_resonant_transfer_is_complete():
    # delta = 0: the ground amplitude moves entirely to the flipped branch,
    # picking up the phase exp(-i ((2 E_1 + 1) pi/(4c) + pi/2))
    for c in (0.01, 0.05, 0.2):
        c_j0, c_j1 = resonant_amplitudes(0.3, 0.3, c)
        alpha = (2.0 * 0.3 + 1.0) * np.pi / (4.0 * c)
        assert abs(c_j0) < 1e-12
        assert abs(c_j1) == pytest.approx(1.0, abs=1e-12)
        assert c_j1 == pytest.approx(np.exp(-1j * (alpha + np.pi / 2.0)), abs=1e-12)


def test_far_detuned_leak_is_bounded():
    # |c_j1| <= 2c/delta when delta >> c
    _, c_j1 = resonant_amplitudes(0.0, 1.0, 0.05)
    assert abs(c_j1) <= 2 * 0.05 / 1.0


def test_block_amplitudes_stay_finite_at_huge_coupling():
    # c * c overflows above c ~ 1.3e154; Omega must not
    c = 1e300
    c_j0, c_j1 = block_amplitudes(np.array([0.0, 0.5, 2.0]), 1.0, c, np.pi / (2.0 * c))
    assert np.all(np.isfinite(c_j0)) and np.all(np.isfinite(c_j1))
    assert np.allclose(np.abs(c_j0) ** 2 + np.abs(c_j1) ** 2, 1.0, atol=1e-12)


def test_exact_step_zero_time_is_identity():
    h = assemble_hamiltonian(np.diag([0.0, 1.0]), 1.0, 0.05)
    assert np.allclose(propagator(h, 0.0), np.eye(8), atol=1e-14)


def test_full_register_step_reproduces_block_amplitudes():
    # U|00 phi0> decomposes into d_j c_j0 |00 chi_j> + d_j c_j1 |11 chi_j>
    model = build_diagonal([0.0, 0.9, 1.7, 3.1])
    e1, _, _ = ground_truth(model)
    cfg = resonant_config(e1, 0.05)
    u = exact_step(model, cfg)
    rng = np.random.default_rng(22)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z /= np.linalg.norm(z)
    reg = np.zeros(16, dtype=complex)
    reg[:4] = z
    evolved = u @ reg
    energies, vecs = np.linalg.eigh(model.h_s)
    d = vecs.conj().T @ z
    c_j0, c_j1 = block_amplitudes(energies, cfg.epsilon0, 0.05, cfg.tau)
    for j in range(4):
        chi = vecs[:, j]
        got_0 = chi.conj() @ evolved[:4]
        got_1 = chi.conj() @ evolved[12:]
        assert abs(got_0 - d[j] * c_j0[j]) < 1e-9
        assert abs(got_1 - d[j] * c_j1[j]) < 1e-9
    # the cross sector stays empty
    assert np.linalg.norm(evolved[4:12]) < 1e-12


def test_trotter_requires_at_least_one_slice():
    h = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ValueError):
        trotter_propagator(h, h, 1.0, 0)


def test_trotter_rejects_mismatched_parts():
    with pytest.raises(DimensionMismatch):
        trotter_propagator(np.zeros((4, 4)), np.zeros((8, 8)), 1.0, 4)


def test_trotter_rejects_non_hermitian_parts():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian):
        trotter_propagator(bad, np.zeros((2, 2)), 1.0, 4)


def test_trotter_is_unitary():
    model = build_aklt(1)
    cfg = resonant_config(0.0, 0.05)
    part_a, part_b = split_parts(model, cfg)
    for l in (1, 3, 16):
        u = trotter_propagator(part_a, part_b, cfg.tau, l)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-9)


def test_trotter_exact_in_commuting_limit():
    model = build_aklt(1)
    cfg = resonant_config(0.0, 0.05)
    part_a, part_b = split_parts(model, cfg)
    u_a = propagator(part_a, 2.0)
    for l in (1, 7):
        u = trotter_propagator(part_a, np.zeros_like(part_b), 2.0, l)
        assert np.linalg.norm(u - u_a) < 1e-12


def test_trotter_error_scales_as_one_over_l():
    model = build_aklt(1)
    e1, _, _ = ground_truth(model)
    cfg = resonant_config(e1, 0.05)
    u_exact = exact_step(model, cfg)
    part_a, part_b = split_parts(model, cfg)
    errs = [
        float(np.linalg.norm(trotter_propagator(part_a, part_b, cfg.tau, l) - u_exact, 2))
        for l in (64, 128, 256)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert 1.6 < errs[0] / errs[1] < 2.4
    assert 1.6 < errs[1] / errs[2] < 2.4


def test_trotter_success_probability_tracks_exact():
    # m+1 post-selected outcomes: the probability product stays inside a
    # first-order window around the exact product
    model = build_aklt(1)
    e1, _, _ = ground_truth(model)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    l = 256
    for m in (0, 1, 3):
        cfg_e = resonant_config(e1, 0.05, max_iterations=m + 1, mode="post-selected")
        cfg_t = resonant_config(
            e1, 0.05, max_iterations=m + 1, mode="post-selected", trotter_steps=l
        )
        p_exact = np.prod(
            [r.excitation_probability for r in run_algorithm(model, cfg_e, phi0).records]
        )
        p_trot = np.prod(
            [r.excitation_probability for r in run_algorithm(model, cfg_t, phi0).records]
        )
        envelope = 1.0 - (1.0 - 10.0 / l) ** (m + 1)
        assert abs(p_trot / p_exact - 1.0) <= envelope


def components(m):
    # reachability through m != 0, closed by repeated boolean squaring
    reach = (m != 0) | np.eye(m.shape[0], dtype=bool)
    while True:
        step = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(step, reach):
            return reach
        reach = step


@pytest.mark.parametrize("n_sites", [1, 2])
def test_trotter_power_matches_the_dense_power(n_sites):
    model = build_aklt(n_sites)
    cfg = resonant_config(0.0, 0.05)
    part_a, part_b = split_parts(model, cfg)
    inside = components(assemble_hamiltonian(model.h_s, cfg.epsilon0, cfg.coupling))
    assert not inside.all()
    for l in (1, 2, 3, 64, 511):
        u_a = propagator(part_a, cfg.tau / l)
        u_b = propagator(part_b, cfg.tau / l)
        dense = np.linalg.matrix_power(u_a @ u_b, l)
        u = trotter_propagator(part_a, part_b, cfg.tau, l)
        assert np.max(np.abs(u - dense)) <= 1e-12
        assert not u[~inside].any()


def applied_columns(step, n_dim):
    # the step applied to every |00>|k> basis state: the |00> columns of its propagator
    return np.column_stack([step(col) for col in np.eye(n_dim, dtype=complex)])


def test_step_propagator_selects_exact_or_trotter():
    model = build_diagonal([0.0, 2.0])
    cfg_exact = resonant_config(0.0, 0.05)
    cfg_trot = resonant_config(0.0, 0.05, trotter_steps=32)
    u_exact = applied_columns(step_propagator(model, cfg_exact), 2)
    assert np.allclose(u_exact, exact_step(model, cfg_exact)[:, :2])
    part_a, part_b = split_parts(model, cfg_trot)
    u_trot = applied_columns(step_propagator(model, cfg_trot), 2)
    assert np.allclose(u_trot, trotter_propagator(part_a, part_b, cfg_trot.tau, 32)[:, :2])
    assert np.linalg.norm(u_trot - u_exact) > 1e-6


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n_qubits=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    epsilon0=st.floats(-3.0, 3.0),
    c=st.floats(1e-3, 2.0),
    tau=st.floats(1e-3, 40.0),
)
def test_applied_step_matches_the_formed_propagator(n_qubits, seed, real, epsilon0, c, tau):
    # N = 16 makes a 64-row register, which hermitian_eig splits into blocks
    n_dim = 2**n_qubits
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_dim, n_dim))
    if not real:
        a = a + 1j * rng.normal(size=(n_dim, n_dim))
    model = SystemModel((a + a.conj().T) / 2.0)
    assert model.n_qubits == n_qubits
    cfg = AlgorithmConfig(epsilon0=epsilon0, coupling=c, tau=tau)
    phi = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    phi /= np.linalg.norm(phi)
    got = step_propagator(model, cfg)(phi)
    want = exact_step(model, cfg)[:, :n_dim] @ phi
    assert np.max(np.abs(got - want)) <= 1e-12


def test_exact_paths_never_form_a_propagator(monkeypatch):
    # every binding of linalg.propagator raises: only the Trotter factors still need it
    def refuse(*args):
        raise AssertionError("propagator formed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rescool" and getattr(module, "propagator", None) is propagator:
            monkeypatch.setattr(module, "propagator", refuse)
    model = build_aklt(1)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    sweep = scan(model, SweepConfig(eps_min=0.8, eps_max=1.2, points=5), phi0)
    assert sweep.peak_epsilon == 1.0
    cfg = resonant_config(0.0, 0.05, max_iterations=2)
    assert [r.outcome for r in run_algorithm(model, cfg, phi0).records] == ["excited"] * 2
    with pytest.raises(AssertionError, match="propagator formed"):
        step_propagator(model, resonant_config(0.0, 0.05, trotter_steps=4))


def test_exact_aklt3_run_keeps_its_eigenvectors_in_blocks():
    # the 1024 x 1024 float64 register is 8 MiB; its 18 gathered blocks and
    # their eigenvectors are under 1 MiB each.  A dense eigenvector matrix
    # would add 8 MiB more, and a formed complex exp(-iH tau) 16 MiB.
    model = build_aklt(3)
    phi0 = np.zeros(256, dtype=complex)
    phi0[0b01100110] = 1.0
    cfg = resonant_config(0.0, 0.05, max_iterations=2)
    tracemalloc.start()
    try:
        run_algorithm(model, cfg, phi0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("trotter_steps", [0, 4])
def test_a_non_finite_phase_raises_when_the_step_is_built(trotter_steps):
    model = build_diagonal([0.0, 1e308])
    cfg = AlgorithmConfig(epsilon0=1.0, coupling=0.05, trotter_steps=trotter_steps)
    with pytest.raises(ValueError, match=r"max\|E\| = .*, t = "):
        step_propagator(model, cfg)


# Spectra of N = 2, 4 or 8 levels, drawn mostly from a few values so that
# degenerate levels, including a degenerate ground space, come up often.
spectra = st.sampled_from([2, 4, 8]).flatmap(
    lambda n: st.lists(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0), min_size=n, max_size=n
    )
)
couplings = st.just(0.0) | st.floats(0.0, 1.0)
durations = st.just(0.0) | st.floats(0.0, 40.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    levels=spectra,
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    epsilon0=st.floats(-2.0, 4.0),
    c=couplings,
    tau=durations,
)
@example(levels=[0.0, 0.0, 1.0, 1.0], seed=1, real=False, epsilon0=1.0, c=0.0, tau=3.0)
@example(levels=[0.0, 0.0, 1.0, 1.0], seed=2, real=False, epsilon0=1.0, c=0.05, tau=0.0)
@example(levels=[0.0, 0.0, 1.0, 1.0], seed=3, real=True, epsilon0=1.0, c=0.05, tau=31.4)
def test_block_amplitudes_match_the_dense_register(levels, seed, real, epsilon0, c, tau):
    # For a random Hermitian H_S, exp(-i H tau)|00 chi_j> must equal
    # c_j0 |00 chi_j> + c_j1 |11 chi_j> for every eigenvector chi_j.  A real
    # orthogonal q makes H_S and the register real, so both go through the
    # real-symmetric solver.
    n_dim = len(levels)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_dim, n_dim))
    if not real:
        z = z + 1j * rng.normal(size=(n_dim, n_dim))
    q, _ = np.linalg.qr(z)
    h_s = (q * np.asarray(levels)) @ q.conj().T
    h_s = (h_s + h_s.conj().T) / 2.0
    (_, _, solved), = hermitian_eig(h_s).blocks
    assert np.isrealobj(solved) == (not h_s.imag.any())
    energies, vecs = np.linalg.eigh(h_s)
    c_j0, c_j1 = block_amplitudes(energies, epsilon0, c, tau)
    u = propagator(assemble_hamiltonian(h_s, epsilon0, c), tau)
    evolved = u[:, :n_dim] @ vecs
    expected = np.zeros((4 * n_dim, n_dim), dtype=complex)
    expected[:n_dim] = vecs * c_j0
    expected[3 * n_dim :] = vecs * c_j1
    assert np.max(np.abs(evolved - expected)) < 1e-9


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    energy=st.floats(-10.0, 10.0),
    epsilon0=st.floats(-10.0, 10.0),
    c=st.just(0.0) | st.floats(0.0, 5.0),
    tau=st.just(0.0) | st.floats(0.0, 100.0),
)
def test_block_amplitudes_are_normalized(energy, epsilon0, c, tau):
    c_j0, c_j1 = block_amplitudes(energy, epsilon0, c, tau)
    assert abs(abs(c_j0) ** 2 + abs(c_j1) ** 2 - 1.0) < 1e-10
