"""Seeded requests, the timed op and the output checks of each workload.

Requests depend only on the workload seed.  Initial states are bitstrings
whose ground weight exceeds QUALIFY_FLOOR; the weights and the reference
energies come from numpy.linalg.eigh on the model's H_S, so the checks do not
rely on the program's own ground_truth.  See run.py for why each workload
exists.
"""
from __future__ import annotations

import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import count
from typing import NamedTuple

import numpy as np

QUALIFY_FLOOR = 1e-6
DEGENERACY_ATOL = 1e-9
FIDELITY_SLACK = 1e-9

# One sweep block holds one request per point count in a seeded order, so
# every run sees the same mix of grid sizes and ops_per_s does not depend on
# which sizes the seed happened to draw.
SWEEP_POINTS = (32, 36, 40, 44, 48)
SWEEP_WIDTH = (0.2, 0.3)
# Where the resonance sits inside the window, as a share of its width.
SWEEP_RESONANCE_AT = (0.3, 0.7)
# With c up to 0.025 the other levels' tails shift the aklt2 peak by at most
# 1e-3, below half the coarsest grid step the widths and counts above allow
# (0.2 / 47 / 2), so the grid argmax lands within one step of E1.
SWEEP_COUPLING = (0.015, 0.025)

COOL_ITERS = (1, 4)
TROTTER_STEPS = (32, 512)

MC_COUPLING = 0.05
MC_EPSILON0 = 1.0
MC_ITERATIONS = 3


class Checked(NamedTuple):
    """Verdict on one op: ok, the program's output text, and the op's value.

    value is the accuracy figure of the op (e1 error, infidelity) or, for
    Monte Carlo, 1.0 for a completed streak and 0.0 for a capped run.
    """

    ok: bool
    output: str
    value: float | None = None


# The reference spectra are the benchmark's own work, not the program's: each
# is computed once per model and process, so set-up repeats do not time it.
_SPECTRA: dict[str, tuple[np.ndarray, np.ndarray]] = {}


def spectrum(model_name: str, h_s) -> tuple[np.ndarray, np.ndarray]:
    if model_name not in _SPECTRA:
        _SPECTRA[model_name] = np.linalg.eigh(np.asarray(h_s))
    return _SPECTRA[model_name]


def ground_weights(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weight of every basis state on the (possibly degenerate) ground space."""
    ground = w - w[0] <= DEGENERACY_ATOL
    return np.sum(np.abs(v[:, ground]) ** 2, axis=1)


def qualifying_inits(w: np.ndarray, v: np.ndarray, n_qubits: int) -> list[str]:
    weights = ground_weights(w, v)
    return [format(int(i), f"0{n_qubits}b") for i in np.flatnonzero(weights > QUALIFY_FLOOR)]


def basis_state(bits: str) -> np.ndarray:
    vec = np.zeros(2 ** len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


def run_cli(main, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Call the CLI entry point in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def all_finite(text: str) -> bool:
    """False when any numeric token in the text is NaN or infinite."""
    for token in re.split(r"[,=\s]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


def field(text: str, key: str) -> float:
    return float(text.split(key, 1)[1].split()[0])


@dataclass(frozen=True)
class SweepRequest:
    init: str
    lo: float
    hi: float
    points: int
    c: float

    @property
    def argv(self) -> tuple[str, ...]:
        return (
            "sweep", "--model", "aklt2", "--init", self.init,
            "--range", f"{self.lo!r}:{self.hi!r}",
            "--points", str(self.points), "--c", repr(self.c),
        )  # fmt: skip

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.points - 1)


class Sweep:
    """`rescool sweep --model aklt2`, exact; one request is one op."""

    model_name = "aklt2"
    accuracy_metric = "e1_abs_err"

    def __init__(self, rescool, seed: int):
        self.rescool = rescool
        self.seed = seed
        model = rescool.from_registry(self.model_name)
        w, v = spectrum(self.model_name, model.h_s)
        self.e1 = float(w[0])
        self.inits = qualifying_inits(w, v, model.n_qubits)

    def requests(self):
        for block in count():
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(block,)))
            for points in rng.permutation(SWEEP_POINTS):
                width = rng.uniform(*SWEEP_WIDTH)
                lo = round(1.0 + self.e1 - width * rng.uniform(*SWEEP_RESONANCE_AT), 6)
                yield SweepRequest(
                    init=self.inits[rng.integers(len(self.inits))],
                    lo=lo,
                    hi=round(lo + width, 6),
                    points=int(points),
                    c=round(rng.uniform(*SWEEP_COUPLING), 5),
                )

    def run(self, request: SweepRequest):
        return run_cli(self.rescool.cli.main, request.argv)

    def check(self, request: SweepRequest, result) -> Checked:
        code, out, err = result
        output = f"exit={code}\n{out}{err}"
        rows = [line.split(",") for line in out.splitlines()[1:]]
        grid = [float(row[0]) for row in rows]
        probs = [float(row[1]) for row in rows]
        estimated_e1 = field(err, "estimated E1=")
        refined = field(err, "refined peak epsilon0=")
        ok = (
            code == 0
            and all_finite(out + err)
            and len(rows) == request.points
            and abs(grid[0] - request.lo) <= 1e-9
            and abs(grid[-1] - request.hi) <= 1e-9
            and all(0.0 <= p <= 1.0 for p in probs)
            and abs(estimated_e1 - self.e1) <= request.step
        )
        return Checked(ok, output, abs(refined - 1.0 - self.e1))

    def verdict(self, values: list[float]) -> str | None:
        return None


@dataclass(frozen=True)
class CoolRequest:
    model: str
    init: str
    iters: int
    trotter_steps: int

    @property
    def argv(self) -> tuple[str, ...]:
        argv = (
            "cool", "--model", self.model, "--auto-epsilon", "--init", self.init,
            "--iters", str(self.iters), "--target-known",
        )  # fmt: skip
        if self.trotter_steps:
            argv += ("--trotter-steps", str(self.trotter_steps))
        return argv


class Cool:
    """`rescool cool --auto-epsilon --target-known`, post-selected; one request is one op."""

    accuracy_metric = "final_infidelity"

    def __init__(self, rescool, seed: int, model_name: str, trotter: bool):
        self.rescool = rescool
        self.seed = seed
        self.model_name = model_name
        self.trotter = trotter
        model = rescool.from_registry(model_name)
        w, v = spectrum(self.model_name, model.h_s)
        self.inits = qualifying_inits(w, v, model.n_qubits)

    def requests(self):
        for index in count():
            rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(index,)))
            init = self.inits[rng.integers(len(self.inits))]
            iters = int(rng.integers(COOL_ITERS[0], COOL_ITERS[1] + 1))
            steps = int(rng.integers(TROTTER_STEPS[0], TROTTER_STEPS[1] + 1)) if self.trotter else 0
            yield CoolRequest(self.model_name, init, iters, steps)

    def run(self, request: CoolRequest):
        return run_cli(self.rescool.cli.main, request.argv)

    def check(self, request: CoolRequest, result) -> Checked:
        code, out, err = result
        output = f"exit={code}\n{out}{err}"
        lines = out.splitlines()
        fields = dict(line.split("=", 1) for line in lines if "=" in line)
        iterations = lines.index("k,outcome,probability,fidelity")
        amplitudes = lines.index("index,re,im")
        outcomes = [line.split(",")[1] for line in lines[iterations + 1 : amplitudes]]
        initial = float(fields["initial_fidelity"])
        final = field(err, "final fidelity=")
        ok = (
            code == 0
            and all_finite(out + err)
            and outcomes == ["excited"] * request.iters
            and len(lines) - amplitudes - 1 == 2 ** len(request.init)
            and initial <= final <= 1.0 + FIDELITY_SLACK
        )
        return Checked(ok, output, 1.0 - final)

    def verdict(self, values: list[float]) -> str | None:
        return None


@dataclass(frozen=True)
class McRequest:
    seed: int
    index: int


def streak_probability(w, v, phi0, epsilon0: float, c: float, streak: int) -> float:
    """Closed-form probability that `streak` consecutive probe outcomes are excited.

    In the eigenbasis each level keeps |c_j1|^2 = (2c/s)^2 sin^2(pi s / 4c) of
    its weight per step, s = sqrt(4c^2 + delta_j^2), delta_j = E_j + 1 - eps0.
    """
    weights = np.abs(v.conj().T @ phi0) ** 2
    s = np.sqrt(4.0 * c * c + (w + 1.0 - epsilon0) ** 2)
    keep = (2.0 * c / s) ** 2 * np.sin(np.pi * s / (4.0 * c)) ** 2
    return float(np.sum(weights * keep**streak))


class MonteCarlo:
    """Stochastic `run_algorithm` on aklt1 with restart_cap=0; one run is one op."""

    model_name = "aklt1"
    accuracy_metric = None

    def __init__(self, rescool, seed: int):
        self.rescool = rescool
        self.seed = seed
        self.model = rescool.from_registry(self.model_name)
        self.config = rescool.AlgorithmConfig(
            epsilon0=MC_EPSILON0,
            coupling=MC_COUPLING,
            mode="stochastic",
            max_iterations=MC_ITERATIONS,
            restart_cap=0,
        )
        w, v = spectrum(self.model_name, self.model.h_s)
        self.inits = qualifying_inits(w, v, self.model.n_qubits)
        self.init = self.inits[np.random.default_rng(seed).integers(len(self.inits))]
        self.phi0 = basis_state(self.init)
        d1_sq = float(ground_weights(w, v)[int(self.init, 2)])
        a0 = rescool.compute_a0(self.model, self.phi0, MC_COUPLING)
        _, self.lower = rescool.success_probability_bound(
            d1_sq, a0, MC_COUPLING, MC_ITERATIONS - 1
        )
        # success_probability_bound's "exact" product lies below the true
        # streak probability (0.0804 against 0.0833 from |1100>), so the
        # upper edge of the window is the closed form instead.
        self.upper = streak_probability(w, v, self.phi0, MC_EPSILON0, MC_COUPLING, MC_ITERATIONS)

    def requests(self):
        for index in count():
            yield McRequest(self.seed, index)

    def run(self, request: McRequest):
        rng = np.random.default_rng(np.random.SeedSequence(request.seed, spawn_key=(request.index,)))
        try:
            return self.rescool.run_algorithm(self.model, self.config, self.phi0, rng=rng)
        except self.rescool.RestartCapExceeded as exc:
            return exc

    def check(self, request: McRequest, result) -> Checked:
        if isinstance(result, self.rescool.RestartCapExceeded):
            return Checked(True, f"capped: {result}", 0.0)
        records = result.records
        numbers = [result.d1_sq, result.a0, result.succ_bound, result.initial_fidelity]
        numbers += [r.excitation_probability for r in records]
        numbers += [r.fidelity_to_target for r in records]
        ok = (
            all(math.isfinite(x) for x in numbers)
            and bool(np.all(np.isfinite(result.final_state)))
            and [r.outcome for r in records] == ["excited"] * MC_ITERATIONS
            and result.restarts == 0
        )
        output = ";".join(
            f"{r.outcome},{r.excitation_probability!r},{r.fidelity_to_target!r}" for r in records
        )
        return Checked(ok, output, 1.0)

    def verdict(self, values: list[float]) -> str | None:
        """Success frequency must lie in [bound - 3 sigma, exact + 3 sigma]."""
        n = len(values)
        if n == 0:  # every op failed; those failures already fail the run
            return None
        freq = sum(values) / n
        sigma = math.sqrt(freq * (1.0 - freq) / n)
        lo = self.lower - 3.0 * sigma
        hi = self.upper + 3.0 * sigma
        if lo <= freq <= hi:
            return None
        return f"success frequency {freq:.5f} over {n} runs outside [{lo:.5f}, {hi:.5f}]"


WORKLOADS = {
    "sweep-aklt2": Sweep,
    "cool-aklt3": lambda rescool, seed: Cool(rescool, seed, "aklt3", trotter=False),
    "mc-aklt1": MonteCarlo,
    "trotter-aklt2": lambda rescool, seed: Cool(rescool, seed, "aklt2", trotter=True),
}
