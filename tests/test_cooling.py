import numpy as np
import pytest

from rescool.cooling import (
    DivergentTail,
    RestartCapExceeded,
    ZeroBranch,
    compute_a0,
    ground_overlap,
    measure_first_ancilla,
    render_report,
    run_algorithm,
    run_iteration,
    success_probability_bound,
)
from rescool.evolution import block_amplitudes, step_propagator
from rescool.hamiltonian import AlgorithmConfig, step_branches
from rescool.linalg import hermitian_eig
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


def test_measurement_of_unevolved_state_has_no_excited_branch(chain):
    model, e1, chi1, _ = chain
    identity = np.eye(64, dtype=complex)
    p_exc, ground, excited = step_branches(identity, chi1)
    assert p_exc == 0.0
    assert not measure_first_ancilla(p_exc, "stochastic", np.random.default_rng(0))
    cfg = resonant_config(e1, mode="stochastic")
    rec = run_iteration(chi1, model, cfg, np.random.default_rng(0), u_step=identity, target=chi1)
    assert rec.outcome == "ground"
    assert np.allclose(rec.system_state, chi1, atol=1e-12)
    cfg = resonant_config(e1, mode="post-selected")
    with pytest.raises(ZeroBranch):
        run_iteration(chi1, model, cfg, np.random.default_rng(0), u_step=identity, target=chi1)


def test_measurement_after_resonant_step_is_certain(chain):
    model, e1, chi1, _ = chain
    cfg = resonant_config(e1)
    u = step_propagator(model, cfg)
    p_exc, ground, excited = step_branches(u, chi1)
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
    u = step_propagator(model, cfg)
    rec = run_iteration(phi0, model, cfg, np.random.default_rng(0), u_step=u, target=chi1)
    assert rec.outcome == "excited"
    assert rec.excitation_probability == pytest.approx(1.0 / 12.0, abs=0.01)
    _, _, excited = step_branches(u, phi0)
    assert np.linalg.norm(excited) ** 2 == pytest.approx(rec.excitation_probability, abs=1e-12)
    assert np.allclose(rec.system_state, excited / np.linalg.norm(excited), atol=1e-12)
    assert np.linalg.norm(rec.system_state) == pytest.approx(1.0, abs=1e-10)


def test_ground_state_is_a_fixed_point(chain):
    model, e1, chi1, _ = chain
    cfg = resonant_config(e1, mode="post-selected")
    u = step_propagator(model, cfg)
    rec = run_iteration(chi1, model, cfg, np.random.default_rng(0), u_step=u, target=chi1)
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
    u = step_propagator(model, cfg)
    _, _, excited = step_branches(u, z)
    es = hermitian_eig(model.h_s)
    d = es.eigenvectors.conj().T @ z
    _, c_j1 = block_amplitudes(es.eigenvalues, cfg.epsilon0, cfg.coupling, cfg.tau)
    got = es.eigenvectors.conj().T @ excited
    assert np.max(np.abs(got - d * c_j1)) < 1e-9


def test_stochastic_ground_outcome_renormalizes_the_complement(chain):
    # seed 0 draws 0.63..., far above p ~ 0.086, so the probe reads ground
    model, e1, chi1, phi0 = chain
    cfg = resonant_config(e1, mode="stochastic")
    u = step_propagator(model, cfg)
    rec = run_iteration(phi0, model, cfg, np.random.default_rng(0), u_step=u, target=chi1)
    assert rec.outcome == "ground"
    _, ground, _ = step_branches(u, phi0)
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
    u = step_propagator(model, cfg)
    rng = np.random.default_rng(7)
    runs = 2000
    hits = 0
    p = None
    for _ in range(runs):
        rec = run_iteration(phi0, model, cfg, rng, u_step=u, target=chi1)
        p = rec.excitation_probability
        hits += rec.outcome == "excited"
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


def test_compute_a0_rejects_non_positive_coupling(chain):
    model, e1, chi1, phi0 = chain
    for c in (0.0, -0.05):
        with pytest.raises(ValueError):
            compute_a0(model, phi0, c)


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
