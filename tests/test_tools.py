import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"

REPORT = """mode=post-selected
d1_sq=0.0833333333333
a0=3.7479848196
k,outcome,probability,fidelity
1,excited,0.0828545324629,0.99
index,re,im
0,0.5,0
1,-0.5,1e-05
"""


def load(monkeypatch, name):
    # the tools are scripts, not a package; reference_outputs imports compare_outputs
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module(name)


@pytest.fixture
def compare_outputs(monkeypatch):
    return load(monkeypatch, "compare_outputs")


@pytest.fixture
def reference_outputs(monkeypatch):
    return load(monkeypatch, "reference_outputs")


@pytest.fixture
def dirs(tmp_path):
    # invocation 0 printed a report and exited 0; invocation 1 refused its model
    parent = tmp_path / "parent"
    parent.mkdir()
    files = {
        "0.code": "0\n",
        "0.out": REPORT,
        "0.err": "",
        "1.code": "2\n",
        "1.out": "",
        "1.err": "error: bad level list in model name 'diag:'\n",
    }
    for name, text in files.items():
        (parent / name).write_text(text)
    change = tmp_path / "change"
    shutil.copytree(parent, change)
    return parent, change


def compare(tool, capsys, parent, change):
    code = tool.main([str(parent), str(change)])
    return code, capsys.readouterr().out


def edit(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))


def test_identical_directories_compare_equal(compare_outputs, capsys, dirs):
    code, out = compare(compare_outputs, capsys, *dirs)
    assert (code, out) == (0, "all within tolerance\n")


def test_a_thirteenth_digit_change_is_listed_and_allowed(compare_outputs, capsys, dirs):
    parent, change = dirs
    edit(change / "0.out", "d1_sq=0.0833333333333", "d1_sq=0.08333333333331")
    code, out = compare(compare_outputs, capsys, parent, change)
    assert code == 0
    assert out.splitlines() == [
        "0.out:2: within tolerance",
        "  parent: d1_sq=0.0833333333333",
        "  change: d1_sq=0.08333333333331",
        "all within tolerance",
    ]


def test_a_last_printed_digit_change_is_allowed(compare_outputs, capsys, dirs):
    # one unit in the twelfth significant digit, exactly at the bound
    parent, change = dirs
    edit(change / "0.out", ",0.0828545324629,", ",0.0828545324630,")
    assert compare(compare_outputs, capsys, parent, change)[0] == 0


@pytest.mark.parametrize(
    "old, new",
    [
        ("d1_sq=0.0833333333333", "d1_sq=0.0833333334333"),  # tenth digit
        ("1,excited,", "1,ground,"),  # a word
        ("0.99\n", "0.99,0.5\n"),  # a token more
        ("0,0.5,0\n", "0,0.500000000002,0\n"),  # an amplitude moved by 2e-12
        ("1,-0.5,1e-05", "1,-0.5,1.000002e-05"),  # and a small one by 2e-11
        ("index,re,im\n", "index,re,im\n\n"),  # a line more
    ],
)
def test_a_difference_out_of_tolerance_fails(compare_outputs, capsys, dirs, old, new):
    parent, change = dirs
    edit(change / "0.out", old, new)
    code, out = compare(compare_outputs, capsys, parent, change)
    assert code == 1
    assert out.splitlines()[-1] == "out of tolerance"


def test_amplitudes_compare_in_absolute_terms(compare_outputs, capsys, dirs):
    # 5e-13 on an amplitude of 1e-05 is far past its twelfth digit, but within 1e-12
    parent, change = dirs
    edit(change / "0.out", "1,-0.5,1e-05", "1,-0.5,1.00000005e-05")
    assert compare(compare_outputs, capsys, parent, change)[0] == 0


def test_a_changed_exit_code_fails(compare_outputs, capsys, dirs):
    parent, change = dirs
    (change / "1.code").write_text("3\n")
    code, out = compare(compare_outputs, capsys, parent, change)
    assert code == 1
    assert "1.code: exit code 2 -> 3: out of tolerance" in out.splitlines()


def test_a_missing_output_fails(compare_outputs, capsys, dirs):
    parent, change = dirs
    (change / "1.err").unlink()
    code, out = compare(compare_outputs, capsys, parent, change)
    assert code == 1
    assert "1.err: missing in the change directory: out of tolerance" in out.splitlines()


@pytest.mark.parametrize(
    "code, out, err, refused",
    [
        (0, REPORT, "", False),
        (0, "a0=inf\n", "", False),  # the documented a0 of an init with no ground weight
        (0, "model=nano\n", "", False),
        (0, "1,excited,nan,0.5\n", "", True),
        (0, "", "warning: a0=NaN\n", True),
        (2, "", "error: got nan\n", False),
        (3, "", "", False),
        (4, "", "", False),
        (1, "", "", True),
        (-9, "", "", True),
    ],
)
def test_the_reference_guard_refuses_nan_with_exit_0_and_unknown_codes(
    reference_outputs, code, out, err, refused
):
    argv = reference_outputs.PATHS[0]
    found = reference_outputs.problems(argv, code, out.encode(), err.encode())
    assert bool(found) == refused


@pytest.mark.parametrize("code, refused", [(0, False), (2, True), (3, True), (4, True)])
def test_the_reference_guard_requires_exit_0_of_the_readme_quickstart(
    reference_outputs, code, refused
):
    # an allowed refusal elsewhere, but a README command that fails is a broken README
    for argv in reference_outputs.README_QUICKSTART:
        found = reference_outputs.problems(argv, code, b"", b"")
        assert bool(found) == refused
        assert all(f"README quickstart exits {code}" in problem for problem in found)


@pytest.mark.parametrize("bound_mb, code", [("100000", 0), ("1", 1)])
def test_peak_rss_holds_an_invocation_to_its_bound(bound_mb, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["verify", "--only", "initial-fidelity"]
    done = subprocess.run(
        [sys.executable, str(TOOLS / "peak_rss.py"), bound_mb, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == "1/1 checks passed" and lines[-1].startswith("peak RSS ")
    assert ("exceeds 1 MB" in done.stderr) == (code == 1)


# A handful of the reference invocations, one of each kind: the sweep, an exact
# and a Trotter cooling run, a stochastic run, exact zeros in a blocked file
# model, a refused model, and a phase refused on a level the init does not
# touch.  Each reruns in-process and must match the output committed under
# tools/reference/ within compare_outputs' tolerance.
REFERENCE_SAMPLE = [
    "sweep --model aklt1 --init 1100 --range 0.8:1.2 --points 100",
    "cool --model aklt1 --init 1100 --epsilon0 1.0 --mode stochastic --seed 7 --iters 2",
    "cool --model aklt2 --init 011001 --auto-epsilon --trotter-steps 8 --iters 2 --target-known",
    "cool --model file:h16.txt --auto-epsilon --init 0110 --iters 3 --target-known",
    "cool --model diag:0,0,0.5,0.5,1,1,1.5,1.5,2,2,2.5,2.5,3,3,3.5,3.5 --init 0000 --auto-epsilon"
    " --iters 2 --target-known",
    "cool --model file:h3.txt --epsilon0 1",
    "cool --model diag:1e306,2 --epsilon0 3 --init 1 --iters 1 --tau 1000",
]


@pytest.mark.parametrize("argv", REFERENCE_SAMPLE, ids=range(len(REFERENCE_SAMPLE)))
def test_reference_invocations_match_the_committed_outputs(
    reference_outputs, compare_outputs, tmp_path, monkeypatch, capsys, argv
):
    from rescool.cli import main

    i = reference_outputs.ARGVS.index(argv)
    committed = TOOLS / "reference"
    assert (committed / "argvs.txt").read_text().splitlines()[i] == argv
    for name, text in reference_outputs.MATRIX_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RC_SEED", raising=False)
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert f"{code}\n" == (committed / f"{i}.code").read_text()
    for suffix, text in (("out", out), ("err", err)):
        report, ok = compare_outputs.compare_text(
            f"{i}.{suffix}", (committed / f"{i}.{suffix}").read_text(), text
        )
        assert ok, "\n".join(report)


def test_the_reference_config_file_prints_what_its_flags_print(reference_outputs):
    # CONFIG_FILES[0] is README_QUICKSTART[3] as key=value lines, appended after every
    # earlier invocation so that no committed output moved
    argvs = reference_outputs.ARGVS
    assert argvs[-len(reference_outputs.CONFIG_FILES) :] == reference_outputs.CONFIG_FILES
    i = argvs.index(reference_outputs.CONFIG_FILES[0])
    j = argvs.index(reference_outputs.README_QUICKSTART[3])
    committed = TOOLS / "reference"
    for suffix in ("code", "out", "err"):
        got, want = (committed / f"{k}.{suffix}" for k in (i, j))
        assert got.read_bytes() == want.read_bytes()
    codes = [(committed / f"{k}.code").read_text() for k in range(i + 1, len(argvs))]
    assert codes == ["2\n"] * 4
    assert (committed / f"{argvs.index('cool --config maybe.cfg')}.out").read_text() == ""
