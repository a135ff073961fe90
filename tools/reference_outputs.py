"""Run the reference CLI invocations against one checkout and keep what each printed.

    python tools/reference_outputs.py <checkout> <outdir>

Each argv in ARGVS runs in its own subprocess, one at a time, as
`python -W error::RuntimeWarning -m rescool <argv>` with
PYTHONPATH=<checkout>/src, RC_SEED (a seed override older checkouts read)
unset and <outdir> as the working directory, so a `file:` model names the
same relative path in every run.
Invocation i leaves <i>.code, <i>.out and <i>.err in <outdir>, next to
argvs.txt (line i is argv i) and the files the `file:` and `--config` cases read.
`diff -r` of two output directories is then the reference diff, and
tools/compare_outputs.py the same diff with last-digit rounding allowed.

The run also guards "never NaN with exit 0": it exits 1, after writing every
output, if an invocation exits with a code outside ALLOWED_CODES, a
README_QUICKSTART argv exits with any code but 0, or an invocation exits 0
having printed a token that reads as NaN.  A token is what is left after
splitting on ",", "=" and whitespace; a0=inf is legal, the documented value
for an init with no ground weight.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys

from compare_outputs import tokens

# success, bad flags or configuration, flat sweep curve, restart cap exceeded
ALLOWED_CODES = (0, 2, 3, 4)

INITS = {
    "aklt1": "1100",
    "aklt2": "011001",
    "aklt3": "01100110",
    "aklt4": "0110011001",
    "diag:0,2": "0",
}


def three_block_matrix(n: int = 16) -> str:
    """A complex Hermitian n x n matrix file whose entries join i and j only when i = j mod 3.

    Its three blocks interleave, and its 4n-row register is split and solved
    block by block, with complex stacks.  Every entry is a multiple of 1/8.
    """
    rows = [f"dim {n}"]
    for i in range(n):
        entries = []
        for j in range(n):
            lo, hi = min(i, j), max(i, j)
            re, im = 0.0, 0.0
            if i == j:
                re = (5 * i % n) / 4 - 1.5
            elif i % 3 == j % 3:
                re = ((lo + 2 * hi) % 7 - 3) / 8
                im = ((3 * lo + hi) % 5 - 2) / 8 * (1 if i < j else -1)
            entries.append(f"{re:g},{im:g}")
        rows.append(" ".join(entries))
    return "\n".join(rows) + "\n"


# name -> matrix, state or config file text, written into <outdir>: two matrices that are not
# 2^n x 2^n, two that are, and an equal mix of four basis states; then CONFIG_FILES' inputs:
# README_QUICKSTART[3] as key=value lines, a misspelled key, a line without "=", a boolean
# that is neither true nor false, and an amplitude line with no imaginary part
MATRIX_FILES = {
    "h1.txt": "dim 1\n1,0\n",
    "h3.txt": "dim 3\n1,0 0,0 0,0\n0,0 2,0 0,0\n0,0 0,0 3,0\n",
    "h4.txt": "dim 4\n0,0 1,0 0,0 0,0\n1,0 0,0 0,0 0,0\n0,0 0,0 2,0 0,1\n0,0 0,0 0,-1 3,0\n",
    "h16.txt": three_block_matrix(),
    "mix4.txt": "0.5,0\n" * 4,
    "cool.cfg": "# the quickstart's exact run\nmodel = aklt1\ninit = 1100\nauto_epsilon = true\n"
    "iters = 2  # excited outcomes\ntarget_known = yes\n",
    "modle.cfg": "modle = aklt1\n",
    "nokey.cfg": "model aklt1\n",
    "maybe.cfg": "model = aklt1\ninit = 1100\nauto_epsilon = true\ntarget_known = maybe\n",
    "amp0.txt": "1,0\n0\n",
}

README_QUICKSTART = [
    "sweep --model aklt1 --init 1100 --range 0.8:1.2 --points 100",
    "sweep --model diag:0,2 --range 0.5:1.5 --points 51 --shots 200 --seed 7",
    "sweep --model diag:-2,0 --range=-1.2:-0.8 --points 41",
    "cool --model aklt1 --init 1100 --auto-epsilon --iters 2 --target-known",
    "cool --model aklt1 --init 1100 --epsilon0 1.0 --mode stochastic --seed 7 --iters 2",
]

PATHS = [
    "cool --model aklt3 --init 01100110 --auto-epsilon --iters 4 --target-known",
    "cool --model aklt2 --init 011001 --auto-epsilon --trotter-steps 8 --iters 2 --target-known",
    "sweep --model aklt2 --init 011001 --range 0.9:1.1 --points 21 --c 0.02",
    "cool --model aklt4 --init 0110011001 --auto-epsilon --iters 1 --target-known",
    "cool --model aklt3 --init 01100110 --auto-epsilon --mode stochastic --seed 3 --iters 2",
    "cool --model diag:0,2 --auto-epsilon --iters 2 --target-known",
    "cool --model aklt1 --init 1100 --auto-epsilon --c 1e300",
]

# the split step at many slices, stochastically, and at 1e20 slices, where it meets the exact step
TROTTER = [
    "cool --model aklt3 --init 01100110 --auto-epsilon --trotter-steps 300 --iters 3 --target-known",
    "cool --model aklt2 --init 011001 --auto-epsilon --trotter-steps 64 --mode stochastic --seed 5"
    " --iters 3",
    "cool --model aklt1 --init 1100 --auto-epsilon --iters 1 --trotter-steps 100000000000000000000",
]

# couplings from strong to far below the rounding of the phase E_j tau
CHAIN_COUPLINGS = [
    f"cool --model aklt{n} --init {INITS[f'aklt{n}']} --auto-epsilon --c {c} --target-known"
    for n in (1, 2, 3)
    for c in ("0.2", "0.05", "0.013", "1e-3", "1e-6", "1e-100")
]

# the couplings the benchmark's sweep draws from, on each reference init
REFERENCE_INITS = [
    f"cool --model {m} --init {INITS[m]} --auto-epsilon --iters 2 --c {c} --target-known"
    for m in ("aklt2", "aklt3", "aklt4", "diag:0,2")
    for c in ("0.05", "0.025", "0.02", "0.015")
]

# diag: labels, which must name the levels that ran, and shapes that are not 2^n x 2^n
SHAPES = [
    "cool --model diag:0,1.23456789,2.5,3.000000001 --epsilon0 1 --init 01 --iters 1",
    "cool --model diag:0,2 --epsilon0 1 --iters 1",
    "cool --model diag:-2,0 --epsilon0 -1 --iters 1",
    "cool --model diag:0,1e-07 --epsilon0 1 --iters 1",
    "cool --model diag:1e+300,2 --epsilon0 3 --init 1 --iters 1",
    "cool --model diag:-0,1 --epsilon0 1 --iters 1",
    "cool --model diag:0,1,2 --epsilon0 1",
    "cool --model diag:1 --epsilon0 1",
    "cool --model diag: --epsilon0 1",
    "sweep --model diag:0,0,0,0,0",
    "cool --model file:h1.txt --epsilon0 1",
    "cool --model file:h3.txt --epsilon0 1",
    "cool --model file:h4.txt --auto-epsilon --iters 2 --target-known",
]

# exact steps whose register splits into blocks that no step reads: complex stacks,
# degenerate levels, an off-resonant eps0 and tau, and eps0 below the spectrum
REGISTER_BLOCKS = [
    "cool --model file:h16.txt --auto-epsilon --init 0110 --iters 3 --target-known",
    "sweep --model file:h16.txt --range=-3:3 --points 61 --c 0.1",
    "sweep --model aklt3 --init 01100110 --range 0.9:1.1 --points 9 --c 0.02",
    "cool --model aklt2 --init 011001 --epsilon0 1.003 --tau 17.5 --iters 3",
    "cool --model diag:0,0,0.5,0.5,1,1,1.5,1.5,2,2,2.5,2.5,3,3,3.5,3.5 --init 0000 --auto-epsilon"
    " --iters 2 --target-known",
    "cool --model diag:-3,-3,-2,0,0,1,1,2,2,2,2,5,5,6,6,7 --init 0011 --epsilon0 -2 --iters 2",
]

# a run with no iterations, and a stochastic run that restarts on a degenerate ground space
RUN_STATE = [
    "cool --model aklt2 --init 011001 --auto-epsilon --iters 0 --target-known",
    "cool --model diag:0,0,1,2 --init file:mix4.txt --auto-epsilon --mode stochastic --seed 1"
    " --iters 2 --target-known",
]

# a phase that is not finite on a level the init does not touch: a run steps only the levels
# it touches, yet refuses every level's phase; the last case passes the a0 phase and fails
# only the step's own, at a tau past the half period
UNTOUCHED_LEVELS = [
    "cool --model diag:1e308,2 --epsilon0 3 --init 1 --iters 1",
    "cool --model diag:1e308,2 --epsilon0 3 --init 1 --iters 1 --trotter-steps 4",
    "sweep --model diag:1e308,2 --init 1 --range 2.5:3.5 --points 11",
    "cool --model diag:1e306,2 --epsilon0 3 --init 1 --iters 1 --tau 1000",
]

# the two codes no other invocation exits with: a flat exact curve exits 3 and a stochastic run
# with no restarts left exits 4; and 1e12 slices of the split, which meet the exact step
EXIT_CODES = [
    "sweep --model aklt1 --init 1100 --c 0 --points 11",
    "cool --model aklt1 --init 1100 --auto-epsilon --mode stochastic --seed 1 --iters 3"
    " --restart-cap 0",
    "cool --model aklt2 --init 011001 --auto-epsilon --trotter-steps 1000000000000 --iters 2"
    " --target-known",
]

# a stochastic run that restarts 31 times, so its attempts revisit the same streak positions
MANY_RESTARTS = [
    "cool --model aklt2 --init 010011 --auto-epsilon --mode stochastic --seed 5 --iters 2"
    " --target-known",
]

# settings read from files: the good config prints what README_QUICKSTART[3] prints; the
# others exit 2, the bad boolean before the run, so it prints no report
CONFIG_FILES = [
    "cool --config cool.cfg",
    "cool --config modle.cfg",
    "cool --config nokey.cfg",
    "cool --config maybe.cfg",
    "cool --model aklt1 --init file:amp0.txt --epsilon0 1",
]

# a restart budget one past hamiltonian.RESTARTS_CAP exits 2 before the run, printing no report
RESTART_BOUND = [
    "cool --model aklt1 --init 1100 --auto-epsilon --mode stochastic --seed 1 --iters 3"
    " --restart-cap 100001",
]

ARGVS = (
    README_QUICKSTART
    + PATHS
    + TROTTER
    + CHAIN_COUPLINGS
    + REFERENCE_INITS
    + SHAPES
    + REGISTER_BLOCKS
    + RUN_STATE
    + UNTOUCHED_LEVELS
    + EXIT_CODES
    + MANY_RESTARTS
    + CONFIG_FILES
    + RESTART_BOUND
)


def is_nan(token: str) -> bool:
    try:
        return math.isnan(float(token))
    except ValueError:
        return False


def problems(argv: str, code: int, out: bytes, err: bytes) -> list[str]:
    """What the guard refuses in one run of argv.

    A code outside ALLOWED_CODES, a README quickstart argv that does not
    exit 0, or NaN with exit 0.
    """
    if code not in ALLOWED_CODES:
        return [f"exit code {code} is not one of {ALLOWED_CODES}"]
    if code != 0:
        return [f"README quickstart exits {code}, not 0"] if argv in README_QUICKSTART else []
    text = (out + err).decode("ascii", errors="replace")
    nan_lines = [line for line in text.splitlines() if any(map(is_nan, tokens(line)))]
    return [f"exit 0 with NaN in {line!r}" for line in nan_lines]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/reference_outputs.py <checkout> <outdir>", file=sys.stderr)
        return 2
    checkout, outdir = (os.path.abspath(a) for a in argv)
    os.makedirs(outdir, exist_ok=True)
    for name, text in MATRIX_FILES.items():
        with open(os.path.join(outdir, name), "w", encoding="ascii") as fh:
            fh.write(text)
    with open(os.path.join(outdir, "argvs.txt"), "w", encoding="ascii") as fh:
        fh.write("".join(f"{line}\n" for line in ARGVS))
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("RC_SEED", None)
    refused = []
    for i, line in enumerate(ARGVS):
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "rescool", *line.split()]
        done = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True)
        outputs = {"code": f"{done.returncode}\n".encode(), "out": done.stdout, "err": done.stderr}
        for suffix, body in outputs.items():
            with open(os.path.join(outdir, f"{i}.{suffix}"), "wb") as fh:
                fh.write(body)
        found = problems(line, done.returncode, done.stdout, done.stderr)
        refused += [f"{i} ({line}): {problem}" for problem in found]
    print(f"{len(ARGVS)} invocations written to {outdir}")
    for entry in refused:
        print(f"refused: {entry}", file=sys.stderr)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
