from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescool import cooling
from rescool.cooling import (
    DivergentTail,
    RestartCapExceeded,
    ZeroBranch,
    compute_a0,
    ground_overlap,
    measure_first_ancilla,
    render_report,
    run_algorithm,
    success_probability_bound,
)
from rescool.evolution import block_amplitudes, step_propagator
from rescool.hamiltonian import AlgorithmConfig
from rescool.linalg import DimensionMismatch, EigenSystem
from rescool.models import build_aklt, build_diagonal, ground_truth


@pytest.fixture(scope="module")
def chain():
    model = build_aklt(1)
    e1, chi1, gaps = ground_truth(model)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    return model, e1, chi1, phi0


def resonant_config(e1, **kwargs):
    kwargs.setdefault("coupling", 0.05)
    return AlgorithmConfig(epsilon0=e1 + 1.0, **kwargs)


def config_step(model, cfg):
    # the step run_algorithm builds for this model and configuration
    args = (cfg.epsilon0, cfg.coupling, cfg.tau, cfg.trotter_steps)
    return step_propagator(model.spectrum.energies, *args)


def apply_step(model, step, phi):
    # phi in through the spectrum's overlaps, its two slices d c_0 and d c_1 out through combine
    c_0, c_1 = step
    d = model.spectrum.overlaps(phi)[1]
    p_exc = min(float(np.sum(np.abs(d * c_1) ** 2)), 1.0)
    return (p_exc, *model.spectrum.combine(np.stack([d * c_0, d * c_1], axis=1)).T)


def first_record(model, cfg, phi, rng):
    # the first iteration of a one-excited-outcome run from phi
    return run_algorithm(model, replace(cfg, max_iterations=1), phi, rng=rng).records[0]


def test_prepare_register_state_is_h_r_eigenstate(chain):
    # |0>|chi_1> sits at eigenvalue eps0 of the two-ancilla register part
    model, e1, chi1, _ = chain
    eps0 = 0.7
    reg = np.zeros(64, dtype=complex)
    reg[:16] = chi1
    eye = np.eye(16, dtype=complex)
    h_r = np.kron(np.diag([1.0, 0.0]), eps0 * eye) + np.kron(np.diag([0.0, 1.0]), model.h_s)
    h_r_full = np.kron(np.eye(2), h_r)
    assert np.linalg.norm(h_r_full @ reg - eps0 * reg) < 1e-9


def test_measurement_of_unevolved_state_has_no_excited_branch(chain, monkeypatch):
    model, e1, chi1, _ = chain
    # with no coupling and no time the step leaves |00>|v> where it is
    identity = step_propagator(model.spectrum.energies, e1 + 1.0, 0.0, 0.0)
    p_exc, ground, excited = apply_step(model, identity, chi1)
    assert p_exc == 0.0
    assert np.allclose(ground, chi1, atol=1e-12)
    assert not measure_first_ancilla(p_exc, "stochastic", np.random.default_rng(0))

    # the patched step forms the levels the run asks for, those chi_1 touches
    def unevolved(energies, *args):
        return step_propagator(energies, e1 + 1.0, 0.0, 0.0, 0, args[-1])

    # every attempt reads ground at the streak's first position, until the cap stops the run
    monkeypatch.setattr(cooling, "step_propagator", unevolved)
    cfg = resonant_config(e1, mode="stochastic", restart_cap=5)
    with pytest.raises(RestartCapExceeded, match="^6 restarts exceed cap 5 before 1 "):
        run_algorithm(model, cfg, chi1, rng=np.random.default_rng(0))
    with pytest.raises(ZeroBranch):
        first_record(model, resonant_config(e1), chi1, np.random.default_rng(0))


def test_measurement_after_resonant_step_is_certain(chain):
    model, e1, chi1, _ = chain
    cfg = resonant_config(e1)
    step = config_step(model, cfg)
    p_exc, ground, excited = apply_step(model, step, chi1)
    assert p_exc == pytest.approx(1.0, abs=1e-9)
    assert measure_first_ancilla(p_exc, "stochastic", np.random.default_rng(0))
    assert np.linalg.norm(excited) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(ground) < 1e-4


def test_measurement_rejects_unknown_mode():
    with pytest.raises(ValueError):
        measure_first_ancilla(0.5, "mixed", np.random.default_rng(0))


def test_measurement_draws_once_when_stochastic_and_never_when_post_selected():
    drawn = np.random.default_rng(4)
    fresh = np.random.default_rng(4)
    assert measure_first_ancilla(0.0, "post-selected", drawn)
    first = fresh.random()
    assert measure_first_ancilla(0.5, "stochastic", drawn) == (first < 0.5)
    assert drawn.random() == fresh.random()


def test_first_iteration_excitation_probability(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, mode="post-selected")
    step = config_step(model, cfg)
    rec = first_record(model, cfg, phi0, np.random.default_rng(0))
    assert rec.outcome == "excited"
    assert rec.excitation_probability == pytest.approx(1.0 / 12.0, abs=0.01)
    _, _, excited = apply_step(model, step, phi0)
    assert np.linalg.norm(excited) ** 2 == pytest.approx(rec.excitation_probability, abs=1e-12)
    assert np.allclose(rec.system_state, excited / np.linalg.norm(excited), atol=1e-12)
    assert np.linalg.norm(rec.system_state) == pytest.approx(1.0, abs=1e-10)


def test_ground_state_is_a_fixed_point(chain):
    model, e1, chi1, _ = chain
    cfg = resonant_config(e1, mode="post-selected")
    rec = first_record(model, cfg, chi1, np.random.default_rng(0))
    assert rec.excitation_probability == pytest.approx(1.0, abs=1e-9)
    assert rec.fidelity_to_target == pytest.approx(1.0, abs=1e-8)


def test_excited_branch_coefficients_match_closed_form():
    # the |11 chi_j> amplitudes after one step are d_j c_j1
    model = build_diagonal([0.0, 0.7, 1.9, 3.4])
    e1, chi1, _ = ground_truth(model)
    cfg = resonant_config(e1, mode="post-selected")
    rng = np.random.default_rng(31)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z /= np.linalg.norm(z)
    step = config_step(model, cfg)
    _, _, excited = apply_step(model, step, z)
    energies, vecs = np.linalg.eigh(model.h_s)
    d = vecs.conj().T @ z
    _, c_j1 = block_amplitudes(energies, cfg.epsilon0, cfg.coupling, cfg.tau)
    got = vecs.conj().T @ excited
    assert np.max(np.abs(got - d * c_j1)) < 1e-9


def test_stochastic_ground_outcome_renormalizes_the_complement(chain):
    # seed 0 draws 0.63..., far above p ~ 0.086, so the probe reads ground
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, mode="stochastic")
    step = config_step(model, cfg)
    rec = first_record(model, cfg, phi0, np.random.default_rng(0))
    assert rec.outcome == "ground"
    _, ground, _ = apply_step(model, step, phi0)
    p_ground = 1.0 - rec.excitation_probability
    assert np.linalg.norm(ground) ** 2 == pytest.approx(p_ground, abs=1e-12)
    assert np.allclose(rec.system_state, ground / np.linalg.norm(ground), atol=1e-12)


def test_run_algorithm_two_iterations_reaches_the_ground_state(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=2, mode="post-selected")
    report = run_algorithm(model, cfg, phi0)
    assert len(report.records) == 2
    assert [r.k for r in report.records] == [1, 2]
    assert report.restarts == 0
    assert report.initial_fidelity == pytest.approx(1.0 / 12.0, abs=1e-10)
    fids = [r.fidelity_to_target for r in report.records]
    assert fids[0] == pytest.approx(0.9660729893722663, abs=1e-9)
    assert fids[1] == pytest.approx(0.9998630444951846, abs=1e-9)
    probs = [r.excitation_probability for r in report.records]
    assert probs[0] == pytest.approx(0.08625987295999296, abs=1e-9)
    assert probs[1] == pytest.approx(0.9662053165091439, abs=1e-9)
    assert ground_overlap(chi1, report.final_state) == pytest.approx(fids[1], abs=1e-12)


def test_run_algorithm_zero_iterations(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=0)
    report = run_algorithm(model, cfg, phi0)
    assert report.records == []
    assert np.allclose(report.final_state, phi0)
    assert report.succ_bound == pytest.approx(report.d1_sq, abs=1e-12)


def test_run_algorithm_is_reproducible(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=2, mode="stochastic", seed=5)
    rep_a = run_algorithm(model, cfg, phi0)
    rep_b = run_algorithm(model, cfg, phi0)
    assert [r.outcome for r in rep_a.records] == [r.outcome for r in rep_b.records]
    assert np.array_equal(rep_a.final_state, rep_b.final_state)
    assert rep_a.restarts == rep_b.restarts


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    state_seed=st.integers(0, 2**32 - 1),
    iterations=st.integers(1, 3),
    coupling=st.floats(0.02, 0.2),
)
def test_stochastic_runs_repeat_for_the_same_seed(chain, seed, state_seed, iterations, coupling):
    # the outcome draws depend only on the seed, so a rerun repeats them exactly
    model, e1, _, _ = chain
    rng = np.random.default_rng(state_seed)
    phi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    phi0 /= np.linalg.norm(phi0)
    cfg = resonant_config(
        e1, coupling=coupling, max_iterations=iterations, mode="stochastic", seed=seed
    )
    rep_a = run_algorithm(model, cfg, phi0)
    rep_b = run_algorithm(model, cfg, phi0)
    assert [r.outcome for r in rep_a.records] == [r.outcome for r in rep_b.records]
    assert rep_a.restarts == rep_b.restarts
    assert np.array_equal(rep_a.final_state, rep_b.final_state)


def test_a_run_takes_its_states_out_of_the_eigenbasis_once(chain, monkeypatch):
    # the run keeps the overlaps d alone; one combine at its end makes every record's state,
    # one column per distinct (k, outcome), at most 2m however many restarts
    model, e1, chi1, phi0 = chain
    calls = []
    combine = EigenSystem.combine

    def counted(self, d):
        calls.append(combine(self, d))
        return calls[-1]

    monkeypatch.setattr(EigenSystem, "combine", counted)
    run_algorithm(model, resonant_config(e1, max_iterations=3, mode="post-selected"), phi0)
    assert [out.shape for out in calls] == [(16, 3)]
    calls.clear()
    cfg = resonant_config(e1, max_iterations=2, mode="stochastic", seed=7)
    report = run_algorithm(model, cfg, phi0)
    assert report.restarts > 0
    distinct = list(dict.fromkeys((rec.k, rec.outcome) for rec in report.records))
    assert len(calls) == 1 and calls[0].shape == (16, len(distinct)) and len(distinct) <= 4
    for rec in report.records:
        column = calls[0][:, distinct.index((rec.k, rec.outcome))]
        assert np.shares_memory(rec.system_state, calls[0])
        assert np.array_equal(rec.system_state, column)
    calls.clear()
    run_algorithm(model, resonant_config(e1, max_iterations=0), phi0)
    assert calls == []


def test_a_restarting_run_steps_each_streak_position_once(chain, monkeypatch):
    # every attempt walks the same streak, so a finished run multiplies each of the
    # step's amplitude arrays into the k-th overlaps once
    model, e1, chi1, phi0 = chain
    calls = []

    class Counted(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.multiply:
                calls.append(ufunc)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    def counted(*args):
        return tuple(c.view(Counted) for c in step_propagator(*args))

    monkeypatch.setattr(cooling, "step_propagator", counted)
    for iterations, seed in ((2, 7), (3, 1)):
        cfg = resonant_config(e1, max_iterations=iterations, mode="stochastic", seed=seed)
        report = run_algorithm(model, replace(cfg, restart_cap=2000), phi0)
        assert report.restarts > 0
        assert len(calls) == 2 * iterations
        calls.clear()


def test_a_run_takes_phi0_into_the_eigenbasis_once(chain, monkeypatch):
    # d1_sq, a0 and the report's flags come from the overlaps the loop starts from
    model, e1, chi1, phi0 = chain
    calls = []
    overlaps = EigenSystem.overlaps

    def counted(self, x):
        calls.append(np.shape(x))
        return overlaps(self, x)

    monkeypatch.setattr(EigenSystem, "overlaps", counted)
    run_algorithm(model, resonant_config(e1, max_iterations=3, mode="post-selected"), phi0)
    assert calls == [(16,)]
    calls.clear()
    cfg = resonant_config(e1, max_iterations=2, mode="stochastic", seed=7)
    report = run_algorithm(model, cfg, phi0)
    assert report.restarts > 0
    assert calls == [(16,)]
    calls.clear()
    run_algorithm(model, resonant_config(e1, max_iterations=0), phi0)
    assert calls == [(16,)]


def test_stochastic_restarts_rebuild_the_streak(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=2, mode="stochastic", seed=1, restart_cap=2000)
    report = run_algorithm(model, cfg, phi0)
    outcomes = [r.outcome for r in report.records]
    ks = [r.k for r in report.records]
    assert outcomes[-2:] == ["excited", "excited"]
    assert ks[-2:] == [1, 2]
    assert report.restarts == outcomes.count("ground")
    # every ground outcome resets the streak counter
    for rec, prev in zip(report.records[1:], report.records):
        if prev.outcome == "ground":
            assert rec.k == 1
        else:
            assert rec.k == prev.k + 1


def test_restart_cap_aborts_the_run(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=1, mode="stochastic", seed=0, restart_cap=0)
    with pytest.raises(RestartCapExceeded):
        run_algorithm(model, cfg, phi0)


def test_stochastic_outcome_frequency_matches_the_probability(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, mode="stochastic")
    rng = np.random.default_rng(7)
    runs = 2000
    # every attempt starts from phi0 and draws once, so the runs' records are
    # 2000 independent outcomes, drawn as one-iteration runs would draw them
    records = []
    while len(records) < runs:
        records += run_algorithm(model, cfg, phi0, rng=rng).records
    p = records[0].excitation_probability
    hits = sum(rec.outcome == "excited" for rec in records[:runs])
    sigma = np.sqrt(p * (1.0 - p) / runs)
    assert abs(hits / runs - p) <= 3.0 * sigma


def test_zero_ground_weight_runs_but_cannot_purify():
    model = build_diagonal([0.0, 2.0])
    phi_excited = np.array([0.0, 1.0], dtype=complex)
    assert compute_a0(model, phi_excited, 0.05) == np.inf
    cfg = AlgorithmConfig(
        epsilon0=1.0, coupling=0.01, max_iterations=1, seed=7, mode="stochastic", restart_cap=50
    )
    with pytest.raises(RestartCapExceeded):
        run_algorithm(model, cfg, phi_excited)


def test_monotone_purification_on_random_diagonal_models():
    rng = np.random.default_rng(20240812)
    for _ in range(50):
        levels = np.concatenate([[0.0], np.sort(0.5 + 3.0 * rng.random(7))])
        model = build_diagonal(levels)
        while True:
            z = rng.normal(size=8) + 1j * rng.normal(size=8)
            z /= np.linalg.norm(z)
            if abs(z[0]) ** 2 >= 0.05:
                break
        cfg = AlgorithmConfig(
            epsilon0=1.0, coupling=0.05, max_iterations=5, mode="post-selected"
        )
        report = run_algorithm(model, cfg, z)
        fids = [report.initial_fidelity] + [r.fidelity_to_target for r in report.records]
        for before, after in zip(fids, fids[1:]):
            assert after >= before - 1e-15
            # contraction is fast while the infidelity is resolvable
            if 1.0 - before > 1e-12:
                assert (1.0 - after) <= 0.15 * (1.0 - before)
        assert 1.0 - fids[-1] < 1e-6


def test_compute_a0_on_the_chain(chain):
    model, e1, chi1, phi0 = chain
    a0 = compute_a0(model, phi0, 0.05)
    assert a0 == pytest.approx(3.7479848196025314, abs=1e-9)


@pytest.mark.parametrize("c", [1e-170, 1e-300])
def test_compute_a0_survives_a_coupling_whose_square_underflows(c):
    # a0 = sqrt(sum_{j>1} |d_j|^2 (|c_j1|/c)^2) / |d_1|, |c_j1|/c = |sin(Omega tau)|/Omega
    # with Omega = |E_j - E_1|/2 on resonance: exact halves for these levels
    model = build_diagonal([0.0, 1.0, 2.0, 3.0])
    rng = np.random.default_rng(41)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z /= np.linalg.norm(z)
    energies, vecs = np.linalg.eigh(model.h_s)
    d = vecs.conj().T @ z
    omega = (energies[1:] - energies[0]) / 2.0
    tau = np.pi / (2.0 * c)
    # sin(Omega tau)/Omega = tau sinc(Omega tau/pi); a phase of 1e170 rad or more keeps
    # no digits under reordering, so it is rounded as block_amplitudes rounds it
    ratio = np.abs(tau * np.sinc(omega * tau / np.pi))
    expected = np.sqrt(np.sum(np.abs(d[1:] * ratio) ** 2)) / abs(d[0])
    a0 = compute_a0(model, z, c)
    assert 0.0 < a0 < np.inf
    assert a0 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("phi", [np.full(4, 0.5), np.eye(32)[12]], ids=["4", "32"])
def test_compute_a0_refuses_a_state_of_the_wrong_dimension(chain, phi):
    # the chain's phi0 padded to 32 entries must not pass on its first 16
    model = chain[0]
    with pytest.raises(DimensionMismatch, match=rf"^state is {phi.size}-dim, spectrum is 16-dim$"):
        compute_a0(model, phi, 0.05)


def test_compute_a0_rejects_non_positive_coupling(chain):
    # the coupling is checked first, before the state's size
    model, e1, chi1, phi0 = chain
    for phi in (phi0, np.eye(32)[12]):
        for c in (0.0, -0.05):
            with pytest.raises(ValueError, match=r"^coupling must be positive"):
                compute_a0(model, phi, c)


def bookkeeping_cases():
    # (model, phi0): the chains, and seeded diagonal models with a unique, a
    # degenerate and an unreachable ground level
    rng = np.random.default_rng(20240901)

    def random_state(n):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        return z / np.linalg.norm(z)

    cases = [(build_aklt(n), random_state(2 ** (2 * n + 2))) for n in (1, 2, 3)]
    unique = np.concatenate([[rng.normal()], rng.normal() + 0.3 + 3.0 * rng.random(7)])
    degenerate = np.concatenate([[-0.4, -0.4], -0.4 + 0.2 + 2.0 * rng.random(6)])
    cases += [(build_diagonal(levels), random_state(8)) for levels in (unique, degenerate)]
    excited_only = random_state(8)
    excited_only[np.argmin(unique)] = 0.0
    cases.append((build_diagonal(unique), excited_only / np.linalg.norm(excited_only)))
    return cases


@pytest.mark.parametrize(
    "case", range(6), ids=["aklt1", "aklt2", "aklt3", "diag", "degenerate", "no-ground"]
)
@pytest.mark.parametrize("c", [0.05, 0.2])
def test_compute_a0_is_the_run_bookkeeping_bit_for_bit(case, c):
    model, phi0 = bookkeeping_cases()[case]
    energies, d = model.spectrum.overlaps(phi0)
    ground = energies - energies.min() <= 1e-9
    cfg = AlgorithmConfig(epsilon0=float(energies.min()) + 1.0, coupling=c, max_iterations=0)
    report = run_algorithm(model, cfg, phi0)
    a0 = compute_a0(model, phi0, c)
    assert report.a0 == a0 and type(report.a0) is type(a0) is float
    assert report.d1_sq == float(np.sum(np.abs(d[ground]) ** 2))
    assert report.degenerate_ground == (case == 4)
    assert (a0 == np.inf) == (case == 5)


def test_success_bound_values():
    exact, lower = success_probability_bound(1.0 / 12.0, 2.0, 0.05, 2)
    # (1/12) / (1.01 * 1.0001)
    assert exact == pytest.approx(0.0825, abs=1e-4)
    assert lower == pytest.approx((1.0 / 12.0) * 0.99**2, abs=1e-12)
    assert lower < exact


def test_success_bound_empty_product():
    exact, lower = success_probability_bound(0.3, 2.0, 0.05, 0)
    assert exact == 0.3
    assert lower == 0.3


def test_success_bound_ordering():
    rng = np.random.default_rng(33)
    for _ in range(50):
        d1_sq = rng.uniform(0.01, 1.0)
        x = rng.uniform(0.01, 0.99)
        m = int(rng.integers(1, 40))
        exact, lower = success_probability_bound(d1_sq, x / 0.05, 0.05, m)
        assert lower < exact <= d1_sq


def test_success_bound_stays_above_d1_sq_over_e():
    # with (a0 c)^2 = 1/(2m) the geometric-tail bound keeps a constant floor
    for m in (1, 10, 100, 10000):
        x = 1.0 / np.sqrt(2.0 * m)
        _, lower = success_probability_bound(0.25, x / 0.05, 0.05, m)
        assert lower > 0.25 / np.e


def test_success_bound_divergent_tail():
    with pytest.raises(DivergentTail):
        success_probability_bound(0.5, 20.0, 0.05, 3)
    with pytest.raises(ValueError):
        success_probability_bound(0.5, 2.0, 0.05, -1)


def test_purified_state_model_is_a_conservative_envelope(chain):
    # the closed form assumes every excited level shrinks at the worst rate,
    # so the simulated run is never less pure; at m = 1 the two agree
    model, e1, chi1, phi0 = chain
    a0 = compute_a0(model, phi0, 0.05)
    x = a0 * 0.05
    for m in (1, 2, 3):
        cfg = resonant_config(e1, max_iterations=m, mode="post-selected")
        report = run_algorithm(model, cfg, phi0)
        fid = report.records[-1].fidelity_to_target
        ratio = np.sqrt((1.0 - fid) / fid)
        assert ratio <= x**m * (1.0 + 1e-9)
        if m == 1:
            assert ratio == pytest.approx(x, abs=1e-12)


def test_report_flags_degenerate_and_slow_cases():
    model = build_diagonal([0.0, 0.0, 1.0, 2.0])
    cfg = AlgorithmConfig(epsilon0=1.0, coupling=0.05, max_iterations=1, mode="post-selected")
    z = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    report = run_algorithm(model, cfg, z)
    assert report.degenerate_ground
    slow = build_diagonal([0.0, 0.2])
    cfg2 = AlgorithmConfig(epsilon0=1.0, coupling=0.05, max_iterations=1, mode="post-selected")
    z2 = np.array([0.8, 0.6], dtype=complex)
    report2 = run_algorithm(slow, cfg2, z2)
    assert report2.slow_purification
    fast = build_diagonal([0.0, 2.0])
    report3 = run_algorithm(fast, cfg2, z2)
    assert not report3.slow_purification


def test_render_report_layout(chain):
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, max_iterations=2, mode="post-selected", seed=3)
    report = run_algorithm(model, cfg, phi0)
    text = render_report(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("mode=post-selected")
    joined = "\n".join(lines)
    assert "model=aklt1" in joined
    assert "d1_sq=" in joined
    assert "a0=" in joined
    assert "succ_bound=" in joined
    header_idx = lines.index("k,outcome,probability,fidelity")
    rows = lines[header_idx + 1 : header_idx + 3]
    assert rows[0].startswith("1,excited,")
    assert rows[1].startswith("2,excited,")
    state_idx = lines.index("index,re,im")
    state_rows = lines[state_idx + 1 :]
    assert len(state_rows) == 16
    amps = np.array(
        [complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in state_rows]
    )
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-9)
    assert ground_overlap(chi1, amps) == pytest.approx(
        report.records[-1].fidelity_to_target, abs=1e-9
    )


def test_the_overlap_with_a_degenerate_ground_basis_is_the_ground_weight():
    # diag:0,0,1,2 has a two-level ground space, which ground_truth returns as a 4 x 2 basis
    model = build_diagonal([0.0, 0.0, 1.0, 2.0])
    _, basis, _ = ground_truth(model)
    assert basis.shape == (4, 2)
    rng = np.random.default_rng(3)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z /= np.linalg.norm(z)
    report = run_algorithm(model, resonant_config(0.0, max_iterations=0), z)
    assert ground_overlap(basis, z) == pytest.approx(report.d1_sq, abs=1e-15)
    assert report.d1_sq == pytest.approx(abs(z[0]) ** 2 + abs(z[1]) ** 2, abs=1e-15)
    with pytest.raises(DimensionMismatch, match="^ground basis is 4-dim, state is 2-dim$"):
        ground_overlap(basis, np.array([1.0, 0.0]))
