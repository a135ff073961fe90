import numpy as np
import pytest

from rescool.cli import main
from rescool.linalg import DimensionMismatch, NotNormalized
from rescool.models import build_aklt, build_diagonal, ground_truth
from rescool.sweep import (
    POINTS_CAP,
    FlatCurve,
    SweepConfig,
    SweepResult,
    _estimate,
    _exact_curve,
    _quadratic_vertex,
    render_csv,
    scan,
)


@pytest.fixture(scope="module")
def chain():
    model = build_aklt(1)
    e1, chi1, gaps = ground_truth(model)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    return model, e1, phi0


def test_exact_probability_peaks_on_resonance(chain):
    model, e1, phi0 = chain
    tau = np.pi / 0.1
    cfg = SweepConfig(eps_min=0.8, eps_max=e1 + 1.0, points=2, coupling=0.05, tau=tau)
    result = scan(model, cfg, phi0)
    (p_off, p_res), errs = result.probabilities, result.stderr
    assert np.all(errs == 0.0)
    assert p_res == pytest.approx(1.0 / 12.0, abs=0.01)
    assert p_off < 0.02


def test_sampled_probability_converges_to_exact(chain):
    model, e1, phi0 = chain
    tau = np.pi / 0.1
    (p_exact,) = _exact_curve(model, np.array([e1 + 1.0]), 0.05, tau, phi0)
    p_hat, stderr = _estimate(p_exact, 100000, np.random.default_rng(11))
    assert stderr > 0
    assert stderr <= 0.5 / np.sqrt(100000)
    assert abs(p_hat - p_exact) <= 4.0 * stderr


def test_stderr_shrinks_with_shots(chain):
    model, e1, phi0 = chain
    tau = np.pi / 0.1
    (p_exact,) = _exact_curve(model, np.array([e1 + 1.0]), 0.05, tau, phi0)
    errs = []
    for shots in (100, 10000):
        _, stderr = _estimate(p_exact, shots, np.random.default_rng(13))
        errs.append(stderr)
    assert errs[1] < errs[0] / 3.0


def test_scan_locates_the_chain_peak(chain):
    model, e1, phi0 = chain
    cfg = SweepConfig(eps_min=0.8, eps_max=1.2, points=100, coupling=0.05)
    result = scan(model, cfg, phi0)
    step = (1.2 - 0.8) / 99
    assert isinstance(result, SweepResult)
    assert result.grid.shape == (100,)
    assert abs(result.peak_epsilon - (e1 + 1.0)) <= step + 1e-12
    assert abs(result.estimated_e1 - e1) <= step + 1e-12
    assert abs(result.refined_peak - (e1 + 1.0)) <= 0.005
    assert result.probabilities.max() == pytest.approx(1.0 / 12.0, abs=0.01)


@pytest.mark.parametrize("trial", range(4))
def test_scan_peak_property_on_random_diagonal_models(trial):
    # gap >= 10c keeps the single resonance isolated inside the window
    rng = np.random.default_rng(4242 + trial)
    e_lo = float(rng.uniform(-0.5, 0.5))
    levels = np.concatenate([[e_lo], np.sort(e_lo + 0.6 + 2.0 * rng.random(3))])
    model = build_diagonal(levels)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z[0] = max(abs(z[0]), 0.8)
    z /= np.linalg.norm(z)
    cfg = SweepConfig(eps_min=e_lo + 0.8, eps_max=e_lo + 1.2, points=81, coupling=0.05)
    result = scan(model, cfg, z)
    step = 0.4 / 80
    assert abs(result.peak_epsilon - (e_lo + 1.0)) <= step + 1e-12
    assert abs(result.refined_peak - (e_lo + 1.0)) <= step


def test_scan_curve_is_smooth_on_a_fine_grid(chain):
    model, e1, phi0 = chain
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=41, coupling=0.05)
    result = scan(model, cfg, phi0)
    assert np.max(np.abs(np.diff(result.probabilities))) < 0.5


def test_scan_with_shots_is_reproducible(chain):
    model, e1, phi0 = chain
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=11, shots=200, coupling=0.05, seed=9)
    res_a = scan(model, cfg, phi0)
    res_b = scan(model, cfg, phi0)
    assert np.array_equal(res_a.probabilities, res_b.probabilities)
    assert np.array_equal(res_a.stderr, res_b.stderr)
    assert res_a.peak_epsilon == res_b.peak_epsilon


def test_only_a_shot_sampled_scan_builds_its_point_streams(chain, monkeypatch):
    # an exact scan draws nothing, so it builds no Generator; a sampled one
    # still draws point i from SeedSequence(seed, spawn_key=(i,))
    model, _, phi0 = chain
    built = []
    default_rng = np.random.default_rng

    def counted(*args):
        built.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    exact = scan(model, SweepConfig(eps_min=0.9, eps_max=1.1, points=11, coupling=0.05), phi0)
    assert built == []
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=11, shots=200, coupling=0.05, seed=9)
    sampled = scan(model, cfg, phi0)
    assert len(built) == 11
    streams = [default_rng(np.random.SeedSequence(9, spawn_key=(i,))) for i in range(11)]
    hits = [rng.binomial(200, p) for rng, p in zip(streams, exact.probabilities)]
    assert np.array_equal(sampled.probabilities, np.array(hits) / 200)


def test_scan_ties_break_toward_lower_epsilon():
    # shots = 1 quantizes the estimates, forcing duplicated maxima
    model = build_diagonal([0.0, 2.0])
    phi0 = np.array([1.0, 0.0], dtype=complex)
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=5, shots=1, coupling=0.05, seed=1)
    result = scan(model, cfg, phi0)
    top = result.probabilities.max()
    assert int(np.sum(result.probabilities == top)) >= 2
    tied = result.grid[result.probabilities == top]
    assert result.peak_epsilon == tied.min()


def test_scan_zero_coupling_is_flat():
    model = build_aklt(1)
    phi0 = np.zeros(16, dtype=complex)
    phi0[12] = 1.0
    cfg = SweepConfig(eps_min=0.8, eps_max=1.2, points=21, coupling=0.0)
    with pytest.raises(FlatCurve):
        scan(model, cfg, phi0)


def test_scan_refuses_a_bad_initial_state(chain):
    # the curve checks phi0's norm once, and the spectrum's overlaps its size
    model = chain[0]
    cfg = SweepConfig(eps_min=0.8, eps_max=1.2, points=3)
    with pytest.raises(NotNormalized):
        scan(model, cfg, np.ones(16))
    with pytest.raises(DimensionMismatch, match="^state is 4-dim, spectrum is 16-dim$"):
        scan(model, cfg, np.full(4, 0.5))


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(eps_min=1.2, eps_max=0.8, points=10)
    with pytest.raises(ValueError):
        SweepConfig(eps_min=0.8, eps_max=1.2, points=1)
    with pytest.raises(ValueError, match=f"^need 2 to {POINTS_CAP} grid points, got"):
        SweepConfig(eps_min=0.8, eps_max=1.2, points=POINTS_CAP + 1)
    assert SweepConfig(eps_min=0.8, eps_max=1.2, points=POINTS_CAP).points == POINTS_CAP
    with pytest.raises(ValueError):
        SweepConfig(eps_min=0.8, eps_max=1.2, points=10, shots=-1)
    with pytest.raises(ValueError):
        SweepConfig(eps_min=0.8, eps_max=1.2, points=10, shots=2**63)
    with pytest.raises(ValueError):
        SweepConfig(eps_min=0.8, eps_max=1.2, points=10, coupling=-0.05)


def test_wider_window_finds_a_shifted_ground_level():
    model = build_diagonal([0.3, 2.0, 3.0, 5.0])
    z = np.array([0.7, 0.5, 0.4, np.sqrt(1 - 0.7**2 - 0.5**2 - 0.4**2)], dtype=complex)
    cfg = SweepConfig(eps_min=1.0, eps_max=1.6, points=121, coupling=0.05)
    result = scan(model, cfg, z)
    step = 0.6 / 120
    assert abs(result.peak_epsilon - 1.3) <= step + 1e-12
    assert abs(result.estimated_e1 - 0.3) <= step + 1e-12


def test_render_csv_layout(chain):
    model, e1, phi0 = chain
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=5, coupling=0.05)
    result = scan(model, cfg, phi0)
    text = render_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "epsilon0,probability,stderr,shots"
    assert len(lines) == 6
    eps_back = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    p_back = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.allclose(eps_back, result.grid, atol=1e-11)
    assert np.allclose(p_back, result.probabilities, rtol=1e-11, atol=1e-15)


def test_write_csv_round_trip(tmp_path, chain):
    model, e1, phi0 = chain
    cfg = SweepConfig(eps_min=0.9, eps_max=1.1, points=5, coupling=0.05)
    result = scan(model, cfg, phi0)
    path = tmp_path / "scan.csv"
    argv = ["sweep", "--model", "aklt1", "--init", "1100", "--range", "0.9:1.1", "--points", "5"]
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_text() == render_csv(result)


def test_write_csv_failure_leaves_no_file(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "scan.csv"
    argv = ["sweep", "--model", "aklt1", "--init", "1100", "--range", "0.9:1.1", "--points", "3"]
    assert main(argv + ["--out", str(missing_dir)]) == 2
    assert capsys.readouterr().out == ""
    assert not missing_dir.exists()
    assert list(tmp_path.iterdir()) == []


def test_a_flat_top_keeps_the_grid_argmax():
    # three equal probabilities around the argmax: the parabola has no vertex
    grid = np.linspace(0.9, 1.1, 5)
    probs = np.array([0.1, 0.5, 0.5, 0.5, 0.1])
    assert _quadratic_vertex(grid, probs, 2) == grid[2]
    assert _quadratic_vertex(grid, probs + np.array([0, 0, 0, 1e-3, 0]), 3) != grid[3]
