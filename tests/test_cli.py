import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rescool.cli import build_parser, main
from rescool.models import from_registry, ground_truth
from rescool.sweep import POINTS_CAP

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", ["diag:", "diag:0,,2"])
def test_cool_refuses_an_empty_level(capsys, name):
    code, out, err = run_cli(capsys, "cool", "--model", name, "--epsilon0", "1")
    assert (code, out) == (2, "")
    assert err == f"error: bad level list in model name {name!r}\n"


def test_sweep_writes_csv_and_reports_the_peak(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:0,2", "--range", "0.5:1.5", "--points", "51"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon0,probability,stderr,shots"
    assert len(lines) == 52
    peak_line = next(ln for ln in err.splitlines() if ln.startswith("peak epsilon0="))
    peak = float(peak_line.split("=")[1].split()[0])
    assert abs(peak - 1.0) <= 0.02 + 1e-12
    assert "estimated E1=" in peak_line
    assert any(ln.startswith("refined peak epsilon0=") for ln in err.splitlines())


def test_sweep_default_init_is_all_zeros(capsys):
    # |00> is the ground state of diag:0,1,2,3, so the peak sits at E1 + 1
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:0,1,2,3", "--points", "41"
    )
    assert code == 0
    peak_line = next(ln for ln in err.splitlines() if ln.startswith("peak epsilon0="))
    assert abs(float(peak_line.split("=")[1].split()[0]) - 1.0) <= 0.01 + 1e-12


def test_sweep_flat_curve_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:0,2", "--c", "0", "--points", "11"
    )
    assert code == 3
    assert "error" in err.lower()


def test_missing_model_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--points", "11")
    assert code == 2
    code, out, err = run_cli(capsys, "cool", "--epsilon0", "1.0")
    assert code == 2


def test_unknown_model_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "sweep", "--model", "spinglass", "--points", "11")
    assert code == 2


def test_bad_range_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:0,2", "--range", "1.2:0.8", "--points", "11"
    )
    assert code == 2
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:0,2", "--range", "nope", "--points", "11"
    )
    assert code == 2


def test_cool_requires_a_reference_eigenvalue(capsys):
    code, out, err = run_cli(capsys, "cool", "--model", "aklt1", "--init", "1100")
    assert code == 2
    assert "epsilon0" in err


def test_cool_post_selected_report(capsys):
    code, out, err = run_cli(
        capsys,
        "cool",
        "--model",
        "aklt1",
        "--init",
        "1100",
        "--auto-epsilon",
        "--iters",
        "2",
        "--target-known",
    )
    assert code == 0
    assert "mode=post-selected" in out
    assert "k,outcome,probability,fidelity" in out
    fid_line = next(ln for ln in err.splitlines() if ln.startswith("final fidelity="))
    assert float(fid_line.split("=")[1]) >= 0.999


def reports_agree(out_a, out_b, atol=1e-14):
    """Every line byte-equal, except amplitude values, which agree within atol."""
    lines_a, lines_b = out_a.splitlines(), out_b.splitlines()
    if len(lines_a) != len(lines_b) or "index,re,im" not in lines_a:
        return False
    first_row = lines_a.index("index,re,im") + 1
    if lines_a[:first_row] != lines_b[:first_row]:
        return False
    for row_a, row_b in zip(lines_a[first_row:], lines_b[first_row:]):
        index_a, *values_a = row_a.split(",")
        index_b, *values_b = row_b.split(",")
        if index_a != index_b or len(values_a) != len(values_b):
            return False
        if any(abs(float(x) - float(y)) > atol for x, y in zip(values_a, values_b)):
            return False
    return True


def test_cool_auto_epsilon_matches_explicit_value(capsys):
    # E1 = 0 up to roundoff, so eps0 = E1 + 1 and 1.0 give the same report;
    # amplitudes that vanish in exact arithmetic may differ by rounding noise
    e1, _, _ = ground_truth(from_registry("aklt1"))
    assert abs(e1) <= 1e-15
    args = ["cool", "--model", "aklt1", "--init", "1100", "--iters", "1"]
    code_a, out_a, _ = run_cli(capsys, *args, "--auto-epsilon")
    code_b, out_b, _ = run_cli(capsys, *args, "--epsilon0", "1.0")
    code_c, out_c, _ = run_cli(capsys, *args, "--epsilon0", "1.001")
    assert code_a == code_b == code_c == 0
    assert reports_agree(out_a, out_b)
    assert not reports_agree(out_a, out_c)


def test_cool_with_no_iterations_builds_no_propagator(capsys, monkeypatch):
    # the report holds only the initial bookkeeping, so no 4N propagator is built
    def refuse(*args):
        raise AssertionError("step_propagator called for a run with no iterations")

    monkeypatch.setattr("rescool.cooling.step_propagator", refuse)
    code, out, err = run_cli(
        capsys, "cool", "--model", "aklt1", "--init", "1100", "--epsilon0", "1.0", "--iters", "0"
    )
    assert code == 0
    assert out.splitlines() == [
        "mode=post-selected",
        "seed=0",
        "model=aklt1",
        "restarts=0",
        "d1_sq=0.0833333333333",
        "a0=3.7479848196",
        "succ_bound=0.0833333333333",
        "initial_fidelity=0.0833333333333",
        "degenerate_ground=false",
        "slow_purification=false",
        "k,outcome,probability,fidelity",
        "index,re,im",
    ] + [f"{i},{int(i == 12)},0" for i in range(16)]


def test_cool_restart_cap_exit_code(capsys):
    code, out, err = run_cli(
        capsys,
        "cool",
        "--model",
        "aklt1",
        "--init",
        "1100",
        "--epsilon0",
        "1.0",
        "--mode",
        "stochastic",
        "--restart-cap",
        "0",
        "--seed",
        "0",
    )
    assert code == 4
    assert "restart" in err.lower()


def test_cool_rejects_bad_bitstring(capsys):
    code, out, err = run_cli(
        capsys, "cool", "--model", "aklt1", "--init", "110", "--epsilon0", "1.0"
    )
    assert code == 2
    code, out, err = run_cli(
        capsys, "cool", "--model", "aklt1", "--init", "110x", "--epsilon0", "1.0"
    )
    assert code == 2


def test_init_from_amplitude_file(tmp_path, capsys):
    path = tmp_path / "init.txt"
    path.write_text("3,0\n0,0\n0,0\n4,0\n")
    code, out, err = run_cli(
        capsys,
        "cool",
        "--model",
        "diag:0,1,2,3",
        "--init",
        f"file:{path}",
        "--epsilon0",
        "1.0",
        "--iters",
        "1",
    )
    assert code == 0
    assert "d1_sq=0.36" in out


def test_init_file_skips_blank_lines_and_names_a_malformed_one(tmp_path, capsys):
    path = tmp_path / "init.txt"
    path.write_text("\n3,0\n  \n0,0\n0,0\n4,0\n\n")
    argv = ["cool", "--model", "diag:0,1,2,3", "--init", f"file:{path}", "--epsilon0", "1.0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "d1_sq=0.36" in out
    path.write_text("3,0\n0\n0,0\n4,0\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: bad amplitude line '0'\n"


def test_init_file_with_wrong_length_fails_without_output(tmp_path, capsys):
    init = tmp_path / "init.txt"
    init.write_text("1,0\n0,0\n")
    out_path = tmp_path / "report.txt"
    code, _, err = run_cli(
        capsys,
        "cool",
        "--model",
        "diag:0,1,2,3",
        "--init",
        f"file:{init}",
        "--epsilon0",
        "1.0",
        "--out",
        str(out_path),
    )
    assert code == 2
    assert not out_path.exists()


def test_out_file_matches_stdout(tmp_path, capsys):
    args = [
        "sweep",
        "--model",
        "diag:0,2",
        "--range",
        "0.8:1.2",
        "--points",
        "11",
        "--shots",
        "100",
        "--seed",
        "4",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "scan.csv"
    code2 = main(args + ["--out", str(path)])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text() == out


@pytest.mark.parametrize("target", ["missing/report.txt", "outdir"])
def test_out_error_names_the_requested_path(tmp_path, capsys, target):
    # a missing directory fails on the temporary file, a directory target on
    # its replace; both name the path asked for, the same on every run
    (tmp_path / "outdir").mkdir()
    path = str(tmp_path / target)
    argv = ["cool", "--model", "diag:0,2", "--auto-epsilon", "--out", path]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    code, out, err = first
    assert (code, out) == (2, "")
    assert repr(path) in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["outdir"]


def test_identical_invocations_are_byte_identical(capsys):
    args = [
        "cool",
        "--model",
        "aklt1",
        "--init",
        "1100",
        "--epsilon0",
        "1.0",
        "--mode",
        "stochastic",
        "--iters",
        "2",
        "--seed",
        "12",
    ]
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv, restarts",
    [
        ("cool --model aklt1 --init 1100 --epsilon0 1.0 --seed 7", 6),
        ("cool --model aklt2 --init 011001 --auto-epsilon --seed 5", 4),
    ],
)
def test_stochastic_restart_counts_are_pinned(capsys, argv, restarts):
    # a rounding-level change in the excited probability must not move a draw
    code, out, _ = run_cli(capsys, *argv.split(), "--mode", "stochastic", "--iters", "2")
    assert code == 0
    lines = out.splitlines()
    assert f"restarts={restarts}" in lines
    rows = lines[lines.index("k,outcome,probability,fidelity") + 1 : lines.index("index,re,im")]
    outcomes = [row.split(",")[1] for row in rows]
    assert outcomes == ["ground"] * restarts + ["excited", "excited"]


def test_config_file_supplies_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nmodel=diag:0,2\npoints=21\nrange=0.8:1.2\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 22
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--points", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_one_parser_serves_every_call_without_carrying_state():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["cool", "--epsilon0", "1.0", "--config", "run.cfg"])
    second = build_parser().parse_args(["cool", "--model", "aklt1"])
    assert (first.epsilon0, first.config) == (1.0, "run.cfg")
    assert (second.epsilon0, second.config, second.model) == (None, None, "aklt1")


def test_config_file_on_off_keys_match_the_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=aklt1\ninit=1100\nauto_epsilon=yes\ntarget_known=on\n")
    by_config = run_cli(capsys, "cool", "--config", str(cfg))
    by_flags = run_cli(
        capsys, "cool", "--model", "aklt1", "--init", "1100", "--auto-epsilon", "--target-known"
    )
    assert by_config[0] == 0
    assert "final fidelity=" in by_config[2]
    assert by_config == by_flags


@pytest.mark.parametrize(
    "argv, line",
    [
        (["cool"], "auto_epsilon=maybe"),
        (["sweep"], "points=abc"),
        (["cool", "--auto-epsilon"], "target_known=maybe"),
        (["cool", "--epsilon0", "1"], "auto_epsilon=maybe"),
    ],
)
def test_config_file_rejects_bad_values(tmp_path, capsys, argv, line):
    # every setting is read before the run, so a bad one prints and writes no report
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=aklt1\ninit=1100\n{line}\n")
    for to_file in ([], ["--out", str(tmp_path / "report.txt")]):
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg), *to_file)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_config_file_refuses_a_line_without_an_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment, then a blank line\n\nmodel aklt1\n")
    code, out, err = run_cli(capsys, "cool", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: expected key=value, got 'model aklt1'\n"


def test_config_file_off_turns_a_switch_off(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=aklt1\ninit=1100\nepsilon0=1\nauto_epsilon=no\ntarget_known=off\n")
    by_config = run_cli(capsys, "cool", "--config", str(cfg))
    by_flags = run_cli(capsys, "cool", "--model", "aklt1", "--init", "1100", "--epsilon0", "1")
    assert by_config[0] == 0 and by_config[2] == ""
    assert by_config == by_flags


def test_cool_with_no_iterations_reports_the_initial_fidelity(capsys):
    argv = "cool --model aklt1 --init 1100 --auto-epsilon --iters 0 --target-known".split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "k,outcome,probability,fidelity\nindex,re,im\n" in out
    assert err == "final fidelity=0.0833333333333\n"


def test_sweep_window_below_zero(capsys):
    # a window below zero must be joined to its flag: "--range -1.2:-0.8" is a usage error
    code, out, err = run_cli(
        capsys, "sweep", "--model", "diag:-2,0", "--range=-1.2:-0.8", "--points", "41"
    )
    assert code == 0
    assert "estimated E1=-2\n" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--model", "diag:-2,0", "--range", "-1.2:-0.8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, line",
    [
        (["cool", "--epsilon0", "1.0"], "coupling=0.2"),
        (["sweep"], "iters=3"),
        (["sweep"], "command=cool"),
        (["sweep"], "config=other.cfg"),
    ],
)
def test_config_file_rejects_keys_that_are_not_flags(tmp_path, capsys, argv, line):
    # coupling is not a flag (--c is) and iters belongs to cool, not sweep
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=aklt1\ninit=1100\n{line}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    key = line.split("=")[0]
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert str(cfg) in err and repr(key) in err


def test_verify_subset_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "initial-fidelity")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS initial-fidelity:")
    assert lines[-1] == "1/1 checks passed"


def test_verify_unknown_filter_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "no-such-check")
    assert code == 2


def test_verify_rejects_non_positive_tolerance_scale(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--only", "initial-fidelity", "--tolerance-scale", "0"
    )
    assert code == 2


def test_verify_exit_code_tracks_failures(capsys):
    # sweep-peak and analytic-oracle both pass; the exit code follows the lines
    code, out, err = run_cli(capsys, "verify", "--only", "analytic-oracle")
    lines = out.strip().splitlines()
    assert (code == 0) == all(ln.startswith("PASS") for ln in lines[:-1])


@pytest.mark.parametrize(
    "argv",
    [
        "cool --model diag:0,1,2,3 --init file:{nan_init} --epsilon0 1.0",
        "cool --model aklt1 --init 1100 --epsilon0 nan",
        "cool --model aklt1 --init 1100 --epsilon0 1.0 --c nan",
        "cool --model aklt1 --init 1100 --epsilon0 1.0 --tau inf",
        "sweep --model aklt1 --init 1100 --c nan",
        "sweep --model aklt1 --init 1100 --tau inf",
        "sweep --model diag:nan,1",
        "sweep --model diag:0,1 --points 2 --shots 99999999999999999999",
        "cool --model file:{nan_matrix} --epsilon0 1.0",
        "cool --model aklt5 --auto-epsilon",
        "cool --model aklt1 --init 1100 --epsilon0 1 --trotter-steps -5 --iters 0",
        "verify --tolerance-scale inf",
        "verify --tolerance-scale nan",
        "cool --model aklt1 --init 1100 --epsilon0 1e308",
        "sweep --model aklt1 --init 1100 --range 1e308:1.7e308 --points 3",
        "cool --model diag:0,1e308 --epsilon0 1 --init 0 --iters 0",
        "cool --model diag:0,1e308 --epsilon0 1 --init 0 --iters 1",
        # a non-finite phase on a level the init does not touch
        "cool --model diag:1e308,2 --epsilon0 3 --init 1 --iters 1",
        "cool --model diag:1e308,2 --epsilon0 3 --init 1 --iters 1 --trotter-steps 4",
        "sweep --model diag:1e308,2 --init 1 --range 2.5:3.5 --points 11",
        "cool --model diag:1e306,2 --epsilon0 3 --init 1 --iters 1 --tau 1000",
    ],
)
def test_non_finite_or_oversized_input_fails_without_output(tmp_path, capsys, argv):
    nan_init = tmp_path / "init.txt"
    nan_init.write_text("nan,0\n0,0\n0,0\n1,0\n")
    nan_matrix = tmp_path / "h.txt"
    nan_matrix.write_text("dim 2\nnan,0 0,0\n0,0 1,0\n")
    args = argv.format(nan_init=nan_init, nan_matrix=nan_matrix).split()
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_the_a0_step_refuses_a_phase_its_own_reference_energy_overflows(tmp_path, capsys):
    # max|E| tau = 1e308 * pi/2 is finite, but the a0 step sits at eps0 = E_1 + 1 = -1e308,
    # so its blocks' phases reach 2e308 * pi/2
    init = tmp_path / "init.txt"
    init.write_text("1,0\n1,0\n")
    argv = f"cool --model diag:-1e308,0 --init file:{init} --epsilon0 0 --c 1 --iters 1"
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "error: phase max|E| * t is not finite: max|E| = inf, t = 1.5708\n"


@pytest.mark.parametrize("steps", ["1" + "0" * 400], ids=["1e400"])
def test_too_many_trotter_steps_is_a_usage_error_naming_the_count(capsys, steps):
    # 1e400 steps have no float step size
    argv = "cool --model aklt1 --init 1100 --auto-epsilon --iters 1 --trotter-steps"
    code, out, err = run_cli(capsys, *argv.split(), steps)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Trotter steps" in err and steps in err


@pytest.mark.parametrize("steps", [10**7, 10**20], ids=["1e7", "1e20"])
def test_many_trotter_steps_run_and_approach_the_exact_step(capsys, steps):
    # the split's error falls as 1/L: every number it prints lies within 10/L
    # of the exact step's, and at 1e20 steps all 12 printed digits agree
    argv = "cool --model aklt1 --init 1100 --auto-epsilon --iters 1 --trotter-steps".split()
    _, exact, _ = run_cli(capsys, *argv, "0")
    code, out, err = run_cli(capsys, *argv, str(steps))
    assert (code, err) == (0, "")
    assert "\n1,excited,0.08625987296,0.966072989372\n" in exact
    got, want = (re.split(r"[,=\n]", text) for text in (out, exact))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        try:
            assert abs(float(a) - float(b)) <= 10.0 / steps
        except ValueError:
            assert a == b
    if steps == 10**20:
        assert out == exact


def test_a_request_too_large_to_allocate_is_a_usage_error(capsys, monkeypatch):
    # numpy raises MemoryError when an allocation fails outright; the
    # stand-in raises it on an admitted grid without allocating
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("rescool.cli.scan", refuse)
    code, out, err = run_cli(
        capsys, "sweep", "--model", "aklt1", "--init", "1100", "--points", str(POINTS_CAP)
    )
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_a_grid_over_the_points_cap_is_refused_before_it_is_allocated(capsys):
    # overcommit lets each grid-sized array succeed until the process is
    # killed, so the count is refused first
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "sweep", "--model", "aklt1", "--init", "1100", "--points", str(POINTS_CAP + 1)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == f"error: need 2 to {POINTS_CAP} grid points, got {POINTS_CAP + 1}\n"
    assert peak < 2**20


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cool_with_huge_coupling_reports_no_nan(capsys):
    code, out, err = run_cli(
        capsys, "cool", "--model", "aklt1", "--init", "1100", "--epsilon0", "1", "--c", "1e300"
    )
    assert code == 0
    assert "nan" not in out + err
    assert "a0=3.31662479036e-300\n" in out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rescool", "verify", "--only", "initial-fidelity"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1/1 checks passed"
