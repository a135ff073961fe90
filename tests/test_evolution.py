import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescool import acceptance, cli, evolution, models
from rescool.cooling import run_algorithm
from rescool.evolution import (
    block_amplitudes,
    step_propagator,
    trotter_amplitudes,
    trotter_propagator,
)
from rescool.hamiltonian import AlgorithmConfig, assemble_hamiltonian, split_parts
from rescool.linalg import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    hermitian_eig,
    propagator,
    solve_entries,
)
from rescool.models import build_aklt, build_diagonal, ground_truth
from rescool.sweep import SweepConfig, scan


def resonant_config(e1, c, **kwargs):
    return AlgorithmConfig(epsilon0=e1 + 1.0, coupling=c, **kwargs)


def exact_step(model, cfg):
    # the dense reference: exp(-i H tau) of the whole register
    return propagator(assemble_hamiltonian(model.h_s, cfg.epsilon0, cfg.coupling), cfg.tau)


def config_parts(model, cfg):
    return split_parts(model.h_s, cfg.epsilon0, cfg.coupling)


def config_step(model, cfg):
    args = (cfg.epsilon0, cfg.coupling, cfg.tau, cfg.trotter_steps)
    return step_propagator(model.spectrum.energies, *args)


def apply_step(spectrum, step, phi):
    # phi in through the spectrum's overlaps, its two slices d c_0 and d c_1 out through combine
    c_0, c_1 = step
    d = spectrum.overlaps(phi)[1]
    p_exc = min(float(np.sum(np.abs(d * c_1) ** 2)), 1.0)
    return (p_exc, *spectrum.combine(np.stack([d * c_0, d * c_1], axis=1)).T)


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
    part_a, part_b = config_parts(model, cfg)
    for l in (1, 3, 16):
        u = trotter_propagator(part_a, part_b, cfg.tau, l)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-9)


def test_trotter_exact_in_commuting_limit():
    model = build_aklt(1)
    cfg = resonant_config(0.0, 0.05)
    part_a, part_b = config_parts(model, cfg)
    u_a = propagator(part_a, 2.0)
    for l in (1, 7):
        u = trotter_propagator(part_a, np.zeros_like(part_b), 2.0, l)
        assert np.linalg.norm(u - u_a) < 1e-12


def test_trotter_error_scales_as_one_over_l():
    model = build_aklt(1)
    e1, _, _ = ground_truth(model)
    cfg = resonant_config(e1, 0.05)
    u_exact = exact_step(model, cfg)
    part_a, part_b = config_parts(model, cfg)
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


def branch_columns(spectrum, step, n_dim):
    # the |00> and |11> slices of the step applied to every |00>|k> basis state
    branches = [apply_step(spectrum, step, col) for col in np.eye(n_dim, dtype=complex)]
    return tuple(np.column_stack([b[i] for b in branches]) for i in (1, 2))


def test_step_propagator_selects_exact_or_trotter():
    model = build_diagonal([0.0, 2.0])
    cfg_exact = resonant_config(0.0, 0.05)
    cfg_trot = resonant_config(0.0, 0.05, trotter_steps=32)
    ground_exact, excited_exact = branch_columns(model.spectrum, config_step(model, cfg_exact), 2)
    u_exact = exact_step(model, cfg_exact)
    assert np.allclose(ground_exact, u_exact[:2, :2])
    assert np.allclose(excited_exact, u_exact[6:, :2])
    ground_trot, excited_trot = branch_columns(model.spectrum, config_step(model, cfg_trot), 2)
    u_trot = trotter_propagator(*config_parts(model, cfg_trot), cfg_trot.tau, 32)
    assert np.allclose(ground_trot, u_trot[:2, :2])
    assert np.allclose(excited_trot, u_trot[6:, :2])
    assert np.linalg.norm(excited_trot - excited_exact) > 1e-6


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    n_dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    epsilon0=st.floats(-3.0, 3.0),
    c=st.just(0.0) | st.floats(0.0, 2.0),
    tau=st.just(0.0) | st.floats(0.0, 40.0),
    trotter_steps=st.sampled_from([0, 4]),
)
def test_step_branches_match_the_dense_oracle(
    n_dim, seed, real, epsilon0, c, tau, trotter_steps
):
    # the spectral step against the 4N register's exp(-iH tau) or its dense split
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_dim, n_dim))
    if not real:
        a = a + 1j * rng.normal(size=(n_dim, n_dim))
    h_s = (a + a.conj().T) / 2.0
    phi = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    phi /= np.linalg.norm(phi)
    spectrum = hermitian_eig(h_s)
    step = step_propagator(spectrum.energies, epsilon0, c, tau, trotter_steps)
    p, ground, excited = apply_step(spectrum, step, phi)
    if trotter_steps:
        u = trotter_propagator(*split_parts(h_s, epsilon0, c), tau, trotter_steps)
    else:
        u = propagator(assemble_hamiltonian(h_s, epsilon0, c), tau)
    want = u[:, :n_dim] @ phi
    assert abs(p - min(float(np.sum(np.abs(want[2 * n_dim :]) ** 2)), 1.0)) <= 1e-12
    assert np.max(np.abs(ground - want[:n_dim])) <= 1e-12
    assert np.max(np.abs(excited - want[3 * n_dim :])) <= 1e-12


def test_step_with_no_coupling_and_no_time_leaves_phi_in_the_ground_slice():
    phi = np.array([0.6, 0.8], dtype=complex)
    spectrum = hermitian_eig(np.diag([0.0, 1.0]))
    step = step_propagator(spectrum.energies, 1.0, 0.0, 0.0)
    p_exc, ground, excited = apply_step(spectrum, step, phi)
    assert p_exc == 0.0
    assert np.array_equal(ground, phi)
    assert np.all(excited == 0)


def test_step_rejects_bad_inputs(monkeypatch):
    # the step takes no state: a run refuses an unnormalized phi0 at entry, and
    # overlaps refuses a state of the wrong size
    model = build_diagonal([0.0, 1.0])
    step = step_propagator(model.spectrum.energies, 1.0, 0.05, 10.0)
    with pytest.raises(NotNormalized):
        run_algorithm(model, AlgorithmConfig(epsilon0=1.0, coupling=0.05), np.array([1.0, 1.0]))
    for phi in (np.array([1.0]), np.array([1.0, 0.0, 0.0, 0.0])):
        with pytest.raises(
            DimensionMismatch, match=rf"^state is {phi.size}-dim, spectrum is 2-dim$"
        ):
            apply_step(model.spectrum, step, phi)
    # a non-unitary Trotter step fails the per-level check when it is built
    formed = evolution.trotter_amplitudes
    monkeypatch.setattr(
        evolution, "trotter_amplitudes", lambda *args: tuple(2.0 * a for a in formed(*args))
    )
    refused = r"^max_j \|1 - \|c_j0\|\^2 - \|c_j1\|\^2\| = 3\.000e\+00 exceeds 1\.0e-10$"
    with pytest.raises(NotNormalized, match=refused):
        step_propagator(model.spectrum.energies, 1.0, 0.05, 10.0, 4)


def test_a_gain_on_one_level_is_refused_though_a_loss_on_another_cancels_it(monkeypatch):
    # level 0's column scaled by sqrt(2) and level 1's zeroed: from d = (1, 1)/sqrt(2)
    # the evolved pair keeps norm 1, yet neither level conserves its weight
    formed = evolution.trotter_amplitudes

    def skewed(*args):
        scale = np.array([np.sqrt(2.0), 0.0])
        return tuple(scale * a for a in formed(*args))

    monkeypatch.setattr(evolution, "trotter_amplitudes", skewed)
    model = build_diagonal([0.0, 1.0])
    config = AlgorithmConfig(epsilon0=1.0, coupling=0.05, tau=10.0, trotter_steps=4)
    refused = r"^max_j \|1 - \|c_j0\|\^2 - \|c_j1\|\^2\| = 1\.000e\+00 exceeds 1\.0e-10$"
    with pytest.raises(NotNormalized, match=refused):
        run_algorithm(model, config, np.array([1.0, 1.0]) / np.sqrt(2.0))


def refuse_register(monkeypatch):
    # every binding of what assembles or splits the register, or forms a dense propagator, raises
    def refuse(*args, **kwargs):
        raise AssertionError("the run path built or propagated the 4N register")

    names = ("assemble_hamiltonian", "split_parts", "trotter_propagator", "propagator")
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "rescool":
            continue
        for name in names:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, refuse)


def test_trotter_step_reads_only_the_00_columns(monkeypatch):
    # |00>|phi> is zero past its first N entries, so the step needs only the
    # |00 chi_j> column (c_j0, c_j1) of each level's split, never the 4N split
    h_s = build_aklt(1).h_s
    tau = 10.0
    phi = np.full(16, 0.25, dtype=complex)
    u = trotter_propagator(*split_parts(h_s, 1.0, 0.05), tau, 8)
    want = u[:, :16] @ phi
    refuse_register(monkeypatch)
    spectrum = hermitian_eig(h_s)
    got = apply_step(spectrum, step_propagator(spectrum.energies, 1.0, 0.05, tau, 8), phi)
    assert abs(got[0] - float(np.sum(np.abs(want[32:]) ** 2))) <= 1e-14
    assert np.max(np.abs(got[1] - want[:16])) <= 1e-14
    assert np.max(np.abs(got[2] - want[48:])) <= 1e-14
    # and the 01 + 10 half, which no step reads, is exactly empty in the dense split
    assert not u[16:48, :16].any()


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_exact_step_solves_only_the_00_11_half(monkeypatch, n_qubits):
    # the step reads |00 chi_j> and |11 chi_j> only, and both rest on H_S's
    # eigenvectors: eigh sees the N rows of H_S once, never the 4N register
    model = build_aklt(n_qubits)
    n_dim = model.dimension
    solved = []
    eigh = np.linalg.eigh

    def recorded(a):
        solved.append(a.size // a.shape[-1])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    refuse_register(monkeypatch)
    step = step_propagator(model.spectrum.energies, 1.0, 0.05, 10.0)
    assert sum(solved) == n_dim
    phi = np.zeros(n_dim, dtype=complex)
    phi[1] = 1.0
    apply_step(model.spectrum, step, phi)
    assert sum(solved) == n_dim


def count_solves(monkeypatch):
    # every binding of solve_entries, the one block solve hermitian_eig and the
    # pair-basis chain share, records the dimension of each matrix it solves
    seen = []

    def counted(label, *args):
        seen.append(label.size)
        return solve_entries(label, *args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "rescool" and getattr(module, "solve_entries", None):
            monkeypatch.setattr(module, "solve_entries", counted)
    return seen


def test_trotter_step_keeps_the_pinned_decompositions(monkeypatch):
    # one solve, of the 64-row aklt2 H_S, read through model.spectrum; the
    # split parts of the 256-row register are never formed or solved
    seen = count_solves(monkeypatch)
    refuse_register(monkeypatch)
    model = build_aklt(2)
    tau = np.pi / (2.0 * 0.05)
    phi = np.eye(64, dtype=complex)[0b011001]
    for steps in (8, 64):
        step = step_propagator(model.spectrum.energies, 1.0, 0.05, tau, steps)
        apply_step(model.spectrum, step, phi)
    assert seen == [64]


def test_every_path_takes_its_step_from_step_propagator(monkeypatch):
    # one step per cooling run; the fixed-point check builds one for its
    # branches and its run another.  A sweep takes none, since its whole
    # curve is one real weighted sum of the levels' sine factors
    calls = []

    def counted(*args):
        calls.append(args)
        return step_propagator(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rescool" and hasattr(module, "step_propagator"):
            monkeypatch.setattr(module, "step_propagator", counted)
    model = build_aklt(1)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    scan(model, SweepConfig(eps_min=0.8, eps_max=1.2, points=7), phi0)
    assert len(calls) == 0
    for iterations, built in ((3, 1), (0, 0)):
        calls.clear()
        run_algorithm(model, resonant_config(0.0, 0.05, max_iterations=iterations), phi0)
        assert len(calls) == built
    calls.clear()
    passed, _ = acceptance.check_resonance_fixed_point(1.0)
    assert passed and len(calls) == 2


def test_no_run_path_forms_a_propagator(monkeypatch, capsys):
    # only the oracles build the register or form a propagator, and no run
    # or request copies an eigenvector out of its blocks: ground_truth is
    # never read, since a run's fidelities are weights of its overlaps and
    # cool --auto-epsilon reads E_1 off the spectrum's eigenvalues.  Nor
    # does any run form the dense AKLT H_S: a chain's runs read only its
    # pair-basis spectrum.
    refuse_register(monkeypatch)
    read = []

    def recorded(model):
        read.append(model.label)
        return ground_truth(model)

    def refuse_dense(n_bulk):
        raise AssertionError("the run path formed the dense AKLT H_S")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rescool" and getattr(module, "ground_truth", None) is ground_truth:
            monkeypatch.setattr(module, "ground_truth", recorded)
    monkeypatch.setattr(models, "_dense_aklt", refuse_dense)
    model = build_aklt(1)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    sweep = scan(model, SweepConfig(eps_min=0.8, eps_max=1.2, points=5), phi0)
    assert sweep.peak_epsilon == 1.0
    for trotter_steps in (0, 4):
        cfg = resonant_config(0.0, 0.05, max_iterations=2, trotter_steps=trotter_steps)
        assert [r.outcome for r in run_algorithm(model, cfg, phi0).records] == ["excited"] * 2
    for argv in (
        "sweep --model aklt1 --init 1100 --points 5",
        "cool --model aklt1 --init 1100 --auto-epsilon --iters 2 --target-known",
        "cool --model aklt1 --init 1100 --auto-epsilon --mode stochastic --seed 7 --iters 2",
        "sweep --model aklt3 --init 01100110 --points 5",
        "cool --model aklt3 --init 01100110 --auto-epsilon --iters 2 --target-known",
        "cool --model aklt3 --init 01100110 --auto-epsilon --mode stochastic --seed 7 --iters 2",
        "cool --model aklt3 --init 01100110 --auto-epsilon --trotter-steps 16 --iters 2",
    ):
        assert cli.main(argv.split()) == 0
    assert read == []


@pytest.mark.parametrize(
    "argv",
    [
        "sweep --model aklt2 --init 011001 --range 0.9:1.1 --points 21 --c 0.02",
        "cool --model aklt2 --init 011001 --auto-epsilon --iters 3 --target-known",
        "cool --model aklt2 --init 011001 --auto-epsilon --iters 2 --trotter-steps 64"
        " --mode stochastic --seed 5",
    ],
    ids=["sweep", "cool", "cool-trotter"],
)
def test_a_request_makes_one_decomposition_of_h_s(monkeypatch, capsys, argv):
    # ground truth, a0, the auto-epsilon resonance, the step and the sweep
    # curve all read model.spectrum; nothing assembles or splits the register
    seen = count_solves(monkeypatch)
    refuse_register(monkeypatch)
    assert cli.main(argv.split()) == 0
    assert seen == [64]


def test_exact_aklt3_run_keeps_its_eigenvectors_in_blocks():
    # the run reads the 256-row H_S's blocks and eigenvectors, about 1 MiB at
    # peak.  The 1024-row float64 register alone would add 8 MiB, and a dense
    # complex eigenvector matrix of H_S 1 MiB.
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
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("trotter_steps", [0, 4])
def test_a_non_finite_phase_raises_when_the_step_is_built(trotter_steps):
    model = build_diagonal([0.0, 1e308])
    cfg = AlgorithmConfig(epsilon0=1.0, coupling=0.05, trotter_steps=trotter_steps)
    with pytest.raises(ValueError, match=r"max\|E\| = .*, t = "):
        config_step(model, cfg)


# Spectra of N = 2, 4 or 8 levels, drawn mostly from a few values so that
# degenerate levels, including a degenerate ground space, come up often.
spectra = st.sampled_from([2, 4, 8]).flatmap(
    lambda n: st.lists(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-3.0, 3.0), min_size=n, max_size=n
    )
)
couplings = st.just(0.0) | st.floats(0.0, 1.0)
durations = st.just(0.0) | st.floats(0.0, 40.0)


def hermitian_with_levels(levels, seed, real):
    # q diag(levels) q^dag for a random unitary, or real orthogonal, q
    n_dim = len(levels)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_dim, n_dim))
    if not real:
        z = z + 1j * rng.normal(size=(n_dim, n_dim))
    q, _ = np.linalg.qr(z)
    h_s = (q * np.asarray(levels)) @ q.conj().T
    return (h_s + h_s.conj().T) / 2.0


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
    h_s = hermitian_with_levels(levels, seed, real)
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    levels=spectra,
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    epsilon0=st.floats(-2.0, 4.0),
    c=couplings,
    tau=durations,
    l=st.sampled_from([1, 2, 3, 17, 64, 511]),
)
@example(levels=[0.0, 0.0, 1.0, 1.0], seed=4, real=True, epsilon0=1.0, c=0.05, tau=31.4, l=64)
def test_trotter_amplitudes_match_the_dense_split(levels, seed, real, epsilon0, c, tau, l):
    # The dense split [exp(-iA tau/l) exp(-iB tau/l)]^l of the whole register,
    # each factor from one numpy eigh, takes |00 chi_j> to
    # c_j0 |00 chi_j> + c_j1 |11 chi_j> with trotter_amplitudes' pair.
    n_dim = len(levels)
    h_s = hermitian_with_levels(levels, seed, real)
    energies, vecs = np.linalg.eigh(h_s)
    c_j0, c_j1 = trotter_amplitudes(energies, epsilon0, c, tau, l)
    part_a, part_b = split_parts(h_s, epsilon0, c)
    dense = np.linalg.matrix_power(propagator(part_a, tau / l) @ propagator(part_b, tau / l), l)
    evolved = dense[:, :n_dim] @ vecs
    expected = np.zeros((4 * n_dim, n_dim), dtype=complex)
    expected[:n_dim] = vecs * c_j0
    expected[3 * n_dim :] = vecs * c_j1
    assert np.max(np.abs(evolved - expected)) < 1e-10
    assert np.max(np.abs(np.abs(c_j0) ** 2 + np.abs(c_j1) ** 2 - 1.0)) < 1e-12


def test_trotter_amplitudes_refuse_a_count_with_no_float_step():
    for l in (0, 10**309):
        with pytest.raises(ValueError, match="the split takes 1 to 1e308 Trotter steps"):
            trotter_amplitudes(np.zeros(2), 1.0, 0.05, 1.0, l)
    # the closed form would take any real l; a count must be whole, as numpy ints are
    for l in (2.5, 4.0):
        with pytest.raises(TypeError):
            trotter_amplitudes(np.zeros(2), 1.0, 0.05, 1.0, l)
    assert np.array_equal(
        trotter_amplitudes(np.zeros(2), 1.0, 0.05, 1.0, np.int64(4)),
        trotter_amplitudes(np.zeros(2), 1.0, 0.05, 1.0, 4),
    )


def seeded_complex_hermitian(n_dim=16, seed=20240806):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize(
    "h_s",
    [build_aklt(1).h_s, build_aklt(2).h_s, build_aklt(3).h_s, seeded_complex_hermitian()],
    ids=["aklt1", "aklt2", "aklt3", "complex16"],
)
def test_the_closed_form_split_matches_the_dense_split_at_every_count(h_s):
    # trotter_propagator's dense split against the closed-form rotation, level
    # by level.  The slice dt is fixed and tau = l dt, so every count is a
    # power of the one-slice split, the product of its two propagator factors
    # (1024 rows on aklt3), taken by the squarings matrix_power would make.
    n_dim = h_s.shape[0]
    energies, vecs = np.linalg.eigh(h_s)
    epsilon0, c, dt = float(energies[0]) + 1.0, 0.05, np.pi / (2.0 * 0.05) / 64
    factor = trotter_propagator(*split_parts(h_s, epsilon0, c), dt, 1)
    powers = {1: factor, 2: factor @ factor}
    powers[3] = powers[2] @ factor
    for l in (8, 64, 512):
        powers[l] = np.linalg.matrix_power(powers[l // 8], 8)
    for l, power in powers.items():
        c_j0, c_j1 = trotter_amplitudes(energies, epsilon0, c, l * dt, l)
        evolved = power[:, :n_dim] @ vecs
        assert np.max(np.abs(evolved[:n_dim] - vecs * c_j0)) < 1e-12
        assert np.max(np.abs(evolved[3 * n_dim :] - vecs * c_j1)) < 1e-12
        assert np.max(np.abs(evolved[n_dim : 3 * n_dim])) < 1e-12


def slice_power(energy, epsilon0, c, tau, l):
    # the first column of [diag(e^{-i(eps0-1/2)dt}, e^{-i(1/2+E)dt}) exp(-i c X dt)]^l, multiplied out
    dt = tau / l
    phases = np.diag(np.exp(-1j * dt * np.array([epsilon0 - 0.5, energy + 0.5])))
    rotation = np.array([[np.cos(c * dt), -1j * np.sin(c * dt)], [-1j * np.sin(c * dt), np.cos(c * dt)]])
    column = np.array([1.0, 0.0], dtype=complex)
    for _ in range(l):
        column = phases @ (rotation @ column)
    return column


@pytest.mark.parametrize(
    "energy, epsilon0, c, tau, l",
    [
        (0.0, 1.0, 1.0, np.pi, 1),  # c tau = pi on resonance: the slice is -I to rounding
        (0.0, 1.0, 1.0, np.pi - 1e-9, 1),
        (0.0, 1.0 + 1e-7, 1.0, np.pi + 1e-9, 1),
        (0.0, 1.0, 0.5, 2.0 * np.pi, 2),  # c dt = pi on every slice
        (0.0, 1.0 + 2.0 * np.pi, 1e-9, 3.0, 3),  # detuning d = pi on every slice
        (0.0, 1.0 + 2.0 * np.pi - 1e-8, 1e-3, 3.0, 3),
        (-1.0, 2.0 * np.pi, 2e-3, 7.0, 7),
    ],
)
def test_slices_near_minus_identity_keep_their_precision(energy, epsilon0, c, tau, l):
    # near V = -I, sin(phi) ~ 0 and phi ~ pi: r = sin(l phi)/sin(phi) must
    # not lose the digits that the direct product of 2x2 slices keeps
    c_j0, c_j1 = trotter_amplitudes(np.array([energy]), epsilon0, c, tau, l)
    want = slice_power(energy, epsilon0, c, tau, l)
    assert abs(c_j0[0] - want[0]) < 1e-13
    assert abs(c_j1[0] - want[1]) < 1e-13


@pytest.mark.parametrize(
    "tau, l",
    [(np.pi / 0.1, 10**k) for k in (0, 1, 4, 8, 12, 20, 100, 308)] + [(1e308, 10**308)],
    ids=[f"1e{k}" for k in (0, 1, 4, 8, 12, 20, 100, 308)] + ["1e308-unit-slices"],
)
def test_the_split_stays_unitary_at_every_count(tau, l):
    # the rotation's column is normalized to rounding however many slices it
    # takes: l phi and l mu dt are reduced mod 2 pi before any sine, so even
    # 1e308 slices of a unit step stay finite
    energies = build_aklt(2).spectrum.energies
    c_j0, c_j1 = trotter_amplitudes(energies, 1.0, 0.05, tau, l)
    assert np.max(np.abs(np.abs(c_j0) ** 2 + np.abs(c_j1) ** 2 - 1.0)) < 1e-14


def test_the_split_converges_to_the_exact_step_as_one_over_l():
    energies = build_aklt(2).spectrum.energies
    tau = np.pi / 0.1
    exact = np.stack(block_amplitudes(energies, 1.0, 0.05, tau))

    def distance(l):
        return float(np.max(np.abs(np.stack(trotter_amplitudes(energies, 1.0, 0.05, tau, l)) - exact)))

    errors = [distance(10**k) for k in range(4, 9)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 9.0 < coarse / fine < 11.0
    assert distance(10**20) < 1e-13
