"""A run and a sweep form amplitudes only on the levels phi0 touches.

Every check compares the support S = flatnonzero(d0) path with an oracle
that steps or sums over all N levels: the curve sum_j |d_j c_j1|^2 from
block_amplitudes, and a post-selected loop of step_propagator on every level.
"""
import numpy as np
import pytest

from rescool import cooling, evolution, sweep
from rescool.cooling import ZERO_BRANCH_ATOL, ZeroBranch, run_algorithm
from rescool.evolution import block_amplitudes, step_propagator
from rescool.hamiltonian import AlgorithmConfig
from rescool.models import (
    DEGENERACY_ATOL,
    build_aklt,
    build_diagonal,
    from_registry,
    save_matrix_file,
)
from rescool.sweep import CHUNK_AMPLITUDES, SweepConfig, _exact_curve, scan

COUPLING = 0.05
TAU = np.pi / (2.0 * COUPLING)


def interleaved_complex_matrix(n_dim=16, seed=5):
    # complex Hermitian, with entries joining i and j only when i = j mod 3: three blocks
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    idx = np.arange(n_dim)
    a = np.where(idx[:, None] % 3 == idx % 3, a, 0.0)
    return (a + a.conj().T) / 2.0


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    path = tmp_path_factory.mktemp("support") / "h16.txt"
    save_matrix_file(str(path), interleaved_complex_matrix())
    return {
        "degenerate-diag": build_diagonal([0.0, 0.0, 1.0, 1.0, 1.0, 2.5, 3.0, 3.0]),
        "complex-file": from_registry(f"file:{path}"),
        **{f"aklt{n}": build_aklt(n) for n in (1, 2, 3)},
    }


def states(n_dim, seed):
    # two basis states, an even mix of two, and a dense random state
    rng = np.random.default_rng(seed)
    eye = np.eye(n_dim, dtype=complex)
    dense = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    return {
        "first": eye[0],
        "middle": eye[n_dim // 2 - 1],
        "mix": (eye[1] + eye[n_dim - 2]) / np.sqrt(2.0),
        "dense": dense / np.linalg.norm(dense),
    }


CASES = [
    (name, state)
    for name in ("degenerate-diag", "complex-file", "aklt1", "aklt2", "aklt3")
    for state in ("first", "middle", "mix", "dense")
]


@pytest.mark.parametrize("name, state", CASES)
def test_the_curve_on_the_support_matches_every_level(models, name, state):
    model = models[name]
    phi0 = states(model.dimension, 7)[state]
    energies, d = model.spectrum.overlaps(phi0)
    e1 = float(energies.min())
    grid = np.concatenate([np.linspace(e1 + 0.5, e1 + 1.5, 41), [e1 + 1.0]])
    _, c_j1 = block_amplitudes(energies, grid[:, None], COUPLING, TAU)
    want = np.minimum(np.sum(np.abs(d * c_j1) ** 2, axis=1), 1.0)
    got = _exact_curve(model, grid, COUPLING, TAU, phi0)
    assert np.max(np.abs(got - want)) <= 1e-15


def all_levels_run(model, config, phi0):
    # (p_excited, fidelity, state) of a post-selected run that steps all N levels,
    # up to an excited branch too small to measure
    energies, d = model.spectrum.overlaps(phi0)
    ground = energies - energies.min() <= DEGENERACY_ATOL
    args = (config.epsilon0, config.coupling, config.tau, config.trotter_steps)
    _, c_1 = step_propagator(energies, *args)
    rows = []
    for _ in range(config.max_iterations):
        excited = d * c_1
        p_exc = min(float(np.sum(np.abs(excited) ** 2)), 1.0)
        if p_exc < ZERO_BRANCH_ATOL:
            rows.append((p_exc, None, None))
            break
        d = excited / np.linalg.norm(excited)
        rows.append((p_exc, float(np.sum(np.abs(d[ground]) ** 2)), model.spectrum.combine(d)))
    return rows


@pytest.mark.parametrize("trotter_steps", [0, 4])
@pytest.mark.parametrize("name, state", CASES)
def test_run_records_on_the_support_match_every_level(models, name, state, trotter_steps):
    model = models[name]
    phi0 = states(model.dimension, 11)[state]
    e1 = float(model.spectrum.eigenvalues[0])
    config = AlgorithmConfig(
        epsilon0=e1 + 1.0, coupling=COUPLING, trotter_steps=trotter_steps, max_iterations=3
    )
    want = all_levels_run(model, config, phi0)
    if want[-1][1] is None:  # e.g. a chain's |0...0>, no ground weight, at 4 Trotter steps
        with pytest.raises(ZeroBranch):
            run_algorithm(model, config, phi0)
        return
    report = run_algorithm(model, config, phi0)
    assert len(report.records) == len(want) == 3
    for record, (p_exc, fid, state_vec) in zip(report.records, want):
        assert abs(record.excitation_probability - p_exc) <= 1e-14
        assert abs(record.fidelity_to_target - fid) <= 1e-14
        assert np.max(np.abs(record.system_state - state_vec)) <= 1e-14


def restepping_run(model, config, phi0):
    # the loop the streak table replaces: every attempt steps again from d0 on the support S.
    # (k, outcome, p_excited, fidelity, state) per record, and the restarts
    energies, d0 = model.spectrum.overlaps(phi0)
    support = np.flatnonzero(d0)
    ground = (energies - energies.min() <= DEGENERACY_ATOL)[support]
    args = (config.epsilon0, config.coupling, config.tau, config.trotter_steps)
    c_0, c_1 = step_propagator(energies[support], *args)
    rng = np.random.default_rng(config.seed)
    rows, restarts, streak, d = [], 0, 0, d0[support]
    while streak < config.max_iterations:
        d_ground, d_excited = d * c_0, d * c_1
        p_exc = min(float(np.sum(np.abs(d_excited) ** 2)), 1.0)
        excited = rng.random() < p_exc
        d = d_excited if excited else d_ground
        d = d / np.linalg.norm(d)
        state = np.zeros(d0.size, dtype=complex)
        state[support] = d
        fid = float(np.sum(np.abs(d[ground]) ** 2))
        outcome = "excited" if excited else "ground"
        rows.append((streak + 1, outcome, p_exc, fid, model.spectrum.combine(state)))
        streak = streak + 1 if excited else 0
        if not excited:
            restarts += 1
            d = d0[support]
    return rows, restarts


# (model, state, Trotter steps, seed): each run restarts 1 to 61 times
RESTARTING = [
    ("degenerate-diag", "mix", 0, 1),
    ("degenerate-diag", "mix", 4, 4),
    ("degenerate-diag", "dense", 0, 5),
    ("degenerate-diag", "dense", 4, 0),
    ("aklt2", "dense", 0, 1),
    ("aklt2", "dense", 4, 1),
    ("aklt2", "middle", 4, 1),
]


@pytest.mark.parametrize("name, state, trotter_steps, seed", RESTARTING)
def test_a_restarting_run_matches_restepping_every_attempt(
    models, name, state, trotter_steps, seed
):
    model = models[name]
    phi0 = states(model.dimension, 11)[state]
    e1 = float(model.spectrum.eigenvalues[0])
    config = AlgorithmConfig(
        epsilon0=e1 + 1.0,
        coupling=COUPLING,
        trotter_steps=trotter_steps,
        max_iterations=3,
        mode="stochastic",
        seed=seed,
    )
    want, restarts = restepping_run(model, config, phi0)
    report = run_algorithm(model, config, phi0)
    assert report.restarts == restarts > 0
    assert len(report.records) == len(want)
    for record, (k, outcome, p_exc, fid, state_vec) in zip(report.records, want):
        assert (record.k, record.outcome) == (k, outcome)
        assert record.excitation_probability == p_exc
        assert record.fidelity_to_target == fid
        assert np.max(np.abs(record.system_state - state_vec)) <= 1e-14
    assert np.array_equal(report.final_state, report.records[-1].system_state)


def test_amplitudes_are_formed_on_the_touched_levels_only(monkeypatch):
    # aklt3 from its Neel-type init touches one pair-basis block: 26 of 256 levels,
    # one of them the ground level.  The step and the curve take those 26, and a0
    # the 25 excited ones
    model = build_aklt(3)
    phi0 = np.eye(256, dtype=complex)[0b01100110]
    assert np.flatnonzero(model.spectrum.overlaps(phi0)[1]).size == 26
    seen = []

    def recorded(where, formed):
        def wrapper(energies, *args):
            seen.append((where, np.size(energies)))
            return formed(energies, *args)

        return wrapper

    def step(*args):  # the step takes every level's energy and forms the levels it is given
        c_0, c_1 = step_propagator(*args)
        seen.append(("step", c_0.size))
        return c_0, c_1

    monkeypatch.setattr(cooling, "step_propagator", step)
    monkeypatch.setattr(cooling, "block_amplitudes", recorded("a0", block_amplitudes))
    monkeypatch.setattr(sweep, "_block_sine", recorded("curve", evolution._block_sine))
    run_algorithm(model, AlgorithmConfig(epsilon0=1.0, coupling=COUPLING), phi0)
    scan(model, SweepConfig(eps_min=0.9, eps_max=1.1, points=9, coupling=COUPLING), phi0)
    assert seen == [("a0", 25), ("step", 26), ("curve", 26)]


def test_a_curve_across_chunks_matches_one_broadcast():
    # the chunk is CHUNK_AMPLITUDES // |S| grid points: two full chunks and one point
    model = build_aklt(3)
    phi0 = np.eye(256, dtype=complex)[0b01100110]
    energies, d = model.spectrum.overlaps(phi0)
    support = np.flatnonzero(d)
    chunk = CHUNK_AMPLITUDES // support.size
    grid = np.linspace(0.5, 1.5, 2 * chunk + 1)
    _, c_j1 = block_amplitudes(energies[support], grid[:, None], COUPLING, TAU)
    want = np.minimum(np.sum(np.abs(d[support] * c_j1) ** 2, axis=1), 1.0)
    got = _exact_curve(model, grid, COUPLING, TAU, phi0)
    assert np.max(np.abs(got - want)) <= 1e-15
    # and the rows on each side of both boundaries against every level
    edges = np.array([chunk - 1, chunk, 2 * chunk - 1, 2 * chunk])
    _, c_all = block_amplitudes(energies, grid[edges, None], COUPLING, TAU)
    assert np.max(np.abs(got[edges] - np.sum(np.abs(d * c_all) ** 2, axis=1))) <= 1e-15


@pytest.mark.parametrize("trotter_steps", [0, 4])
def test_a_phase_on_an_untouched_level_is_still_refused(trotter_steps):
    # |1> touches only the level at 2; the level at 1e306 passes a0's phase at
    # tau = pi/(2c) but not the step's at tau = 1000 (or 250 per Trotter slice)
    model = build_diagonal([1e306, 2.0])
    phi0 = np.array([0.0, 1.0], dtype=complex)
    config = AlgorithmConfig(epsilon0=3.0, coupling=COUPLING, tau=1e3, trotter_steps=trotter_steps)
    step_propagator(np.array([2.0]), 3.0, COUPLING, 1e3, trotter_steps)  # the support alone runs
    refused = r"^phase max\|E\| \* t is not finite: max\|E\| = 1e\+306"
    with pytest.raises(ValueError, match=refused):
        run_algorithm(model, config, phi0)
    with pytest.raises(ValueError, match=refused):
        _exact_curve(model, np.array([2.5, 3.5]), COUPLING, 1e3, phi0)
