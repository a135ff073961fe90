"""Run the reference CLI invocations against one checkout and keep what each printed.

    python tools/reference_outputs.py <checkout> <outdir>

Each argv in ARGVS runs in its own subprocess, one at a time, as
`python -W error::RuntimeWarning -m rescool <argv>` with
PYTHONPATH=<checkout>/src, RC_SEED unset and <outdir> as the working
directory, so a `file:` model names the same relative path in every run.
Invocation i leaves <i>.code, <i>.out and <i>.err in <outdir>, next to
argvs.txt (line i is argv i) and the matrix files the `file:` cases read.
`diff -r` of two output directories is then the reference diff.
"""
from __future__ import annotations

import os
import subprocess
import sys

INITS = {
    "aklt1": "1100",
    "aklt2": "011001",
    "aklt3": "01100110",
    "aklt4": "0110011001",
    "diag:0,2": "0",
}

# name -> matrix file text, written into <outdir>: two that are not 2^n x 2^n, one that is
MATRIX_FILES = {
    "h1.txt": "dim 1\n1,0\n",
    "h3.txt": "dim 3\n1,0 0,0 0,0\n0,0 2,0 0,0\n0,0 0,0 3,0\n",
    "h4.txt": "dim 4\n0,0 1,0 0,0 0,0\n1,0 0,0 0,0 0,0\n0,0 0,0 2,0 0,1\n0,0 0,0 0,-1 3,0\n",
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

ARGVS = README_QUICKSTART + PATHS + CHAIN_COUPLINGS + REFERENCE_INITS + SHAPES


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
    for i, line in enumerate(ARGVS):
        cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "rescool", *line.split()]
        done = subprocess.run(cmd, cwd=outdir, env=env, capture_output=True)
        outputs = {"code": f"{done.returncode}\n".encode(), "out": done.stdout, "err": done.stderr}
        for suffix, body in outputs.items():
            with open(os.path.join(outdir, f"{i}.{suffix}"), "wb") as fh:
                fh.write(body)
    print(f"{len(ARGVS)} invocations written to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
