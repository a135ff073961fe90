import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rescool.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_cool_auto_epsilon_matches_explicit_value(capsys):
    args = ["cool", "--model", "aklt1", "--init", "1100", "--iters", "1"]
    code_a, out_a, _ = run_cli(capsys, *args, "--auto-epsilon")
    code_b, out_b, _ = run_cli(capsys, *args, "--epsilon0", "1.0")
    assert code_a == code_b == 0
    # E1 = 0 up to roundoff, so the reports agree to full precision
    assert out_a == out_b


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


def test_rc_seed_env_overrides_the_flag(capsys, monkeypatch):
    args = [
        "sweep",
        "--model",
        "diag:0,2",
        "--range",
        "0.8:1.2",
        "--points",
        "11",
        "--shots",
        "50",
    ]
    monkeypatch.setenv("RC_SEED", "5")
    code, out_env, _ = run_cli(capsys, *args, "--seed", "9")
    assert code == 0
    monkeypatch.delenv("RC_SEED")
    code, out_flag, _ = run_cli(capsys, *args, "--seed", "5")
    assert code == 0
    assert out_env == out_flag
    monkeypatch.setenv("RC_SEED", "not-an-int")
    code, _, err = run_cli(capsys, *args)
    assert code == 2


def test_config_file_supplies_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nmodel=diag:0,2\npoints=21\nrange=0.8:1.2\n")
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 22
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--points", "6")
    assert code == 0
    assert len(out.strip().splitlines()) == 7


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
        "cool --model file:{nan_matrix} --epsilon0 1.0",
        "cool --model aklt5 --auto-epsilon",
        "cool --model aklt1 --init 1100 --epsilon0 1 --trotter-steps -5 --iters 0",
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
