"""rescool benchmark: a seeded, single-process, closed-loop load generator.

Usage, from the root of the repository:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client sends the next request only after the previous one returns.  The
program is called only through its public entry points: ``rescool.cli.main``
in-process for the CLI workloads and ``rescool.run_algorithm`` for Monte
Carlo.  The seed generates every request; the program receives only the
requests.  Each op's output is checked.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it print every metric by name with its unit, and the run's machine record
(nproc, Python, numpy, BLAS name, version and thread count, git commit, seed).
With ``--trace 1`` the spans go to ``bench/out/``.  The BLAS thread count is
capped at nproc.

Run the tests with ``python3 -m pytest bench``.

Workloads
---------
Initial states are bitstrings drawn from the seed among those with ground
weight: 6 qualify on aklt1, 18 on aklt2 and 54 on aklt3.

sweep-aklt2
    ``rescool sweep --model aklt2``, exact.  The seed sets the window around
    the resonance at 1.0, the point count (32 to 48), ``--c`` and ``--init``.
    One op is one request.  Chosen because one register eigh of dimension 256
    per grid point is the hot path a closed-form block kernel replaces.  It
    runs no cooling loop.
cool-aklt3
    ``rescool cool --model aklt3 --auto-epsilon --iters k``, post-selected.
    The seed sets k in 1-4 and ``--init``.  One op is one request.  Chosen
    because one 1024-dimensional register eigh takes almost all of each
    request and sets the peak RSS.  Nothing is reused across requests, so a
    per-model spectrum cache should not move it.
mc-aklt1
    aklt1 is built once during set-up.  Each op is one stochastic
    ``run_algorithm`` call with restart_cap=0, max_iterations=3, c=0.05 and
    eps0=1.0, each with its own RNG from ``SeedSequence(seed,
    spawn_key=(i,))`` as in the ``success-bound`` check; the initial state is
    fixed per run from the seed.  ``RestartCapExceeded`` is an expected
    outcome.  Chosen because thousands of tiny runs share one model, so
    per-run set-up and Python overhead dominate: this is where "one
    decomposition per model" shows.
trotter-aklt2
    ``rescool cool --model aklt2 --auto-epsilon --trotter-steps L --iters k``.
    The seed sets L in 32-512, k in 1-4 and ``--init``.  One op is one
    request.  The only workload through split_parts, trotter_propagator and
    matrix_power: a kernel that covers the exact step but not the split shows
    here.

BENCHMARK.json lists sweep-aklt2, cool-aklt3 and trotter-aklt2.  mc-aklt1
runs and is tested like the others but is left out of it: over ten 25 s runs
its ops_per_s spread (interquartile range over median) was 0.11 to 0.30,
against 0.05 to 0.17 for the other three and a cap of 0.25 on any bound.  Its
1.5 ms ops track the machine's speed regimes most closely (see op_s_p50
below).  Every layer it reaches is also traced on cool-aklt3 and
trotter-aklt2.

An op fails when it raises, exits nonzero (a flat sweep exits 3), prints a
NaN or infinity anywhere in its output, or fails its workload's check: a
sweep's grid argmax must lie within one grid step of E1; a cooling report
must hold k excited rows, every amplitude row and a final fidelity between
the initial fidelity and 1.  On mc-aklt1 the success frequency must lie in
[bound - 3 sigma, exact + 3 sigma], where bound comes from
success_probability_bound and exact is the closed-form streak probability; a
miss fails the whole run.

End-to-end metrics (``--trace 0``)
----------------------------------
ops_per_s  1/s     ops completed per second of time spent inside the
                   program; the benchmark's own checks between ops are not
                   counted.
op_s_p50   s       median op latency.
op_s_p90   s       90th-percentile op latency, printed only for runs of at
                   least 100 ops.
setup_s    s       time until the first op is ready: the median of nine
                   repeats of importing rescool afresh and building the
                   workload (the model, request generation, and for mc-aklt1
                   a0 and the success bounds).  One untimed build comes
                   first: it writes the .pyc files of a fresh checkout and
                   computes the reference spectra the checks use, which are
                   the benchmark's own work and are kept for the repeats.
                   numpy is imported once before them and is not counted:
                   its import cannot be repeated in-process.  A garbage
                   collection runs before each repeat, outside the timing.
peak_rss_mb MB     the process high-water mark; each run is a fresh process.
fail_frac  1       failed ops / attempted ops.
e1_abs_err energy  sweep-aklt2: median over requests of
                   |refined_peak - 1 - E1|.
final_infidelity 1 cool-aklt3, trotter-aklt2: median of 1 - final fidelity
                   from ``--target-known``.

The accuracy metrics depend only on the seed and on how many ops completed.
The JSON result line, and the bounds in BENCHMARK.json, carry ops_per_s,
setup_s and peak_rss_mb: every workload has them and they are never 0.
fail_frac is carried by the attempted and failed counts.  op_s_p50 is
printed but not bounded: on a 2-vCPU machine whose speed switches between a
fast and a 1.5x slower regime for seconds at a time, the median of thousands
of 1.5 ms mc-aklt1 ops jumps with whichever regime held half the run
(interquartile spread 0.30 of the median over ten 25 s runs), while
ops_per_s, a mean, moved by 0.14.

Per-layer metrics (``--trace 1``)
---------------------------------
The traced run first measures ``seconds/2`` untraced, then replays the same
requests for ``seconds/2`` with the tracer installed (see spans.py); every
replayed op must print byte-identical output.  For each wrapped function:
``<module>.<fn>.calls_per_op``, ``.self_ms_per_op`` and ``.share`` (self time
over op time).  The wrapped functions are models.from_registry and
ground_truth; linalg.hermitian_eig and propagator;
hamiltonian.assemble_hamiltonian and split_parts; evolution.step_propagator
and trotter_propagator; cooling.run_algorithm, run_iteration,
measure_first_ancilla, compute_a0 and render_report; sweep.scan,
excitation_probability and render_csv; cli.main.  Also:

linalg.hermitian_eig.dim_max                   largest eigh dimension
linalg.hermitian_eig.flops_per_op              computed, 36 n^3 per call
hamiltonian.assemble_hamiltonian.bytes_per_op  computed, 16 (4N)^2 per call
cooling.useful_iter_frac   iterations inside completed streaks / iterations
cooling.restarts_per_op    ground outcomes per op
tracing_overhead           untraced minus traced ops_per_s, in 1/s

Which end-to-end metric each layer metric should move:

- linalg.hermitian_eig.* and linalg.propagator.*: ops_per_s and op_s_p50 on
  sweep-aklt2 and cool-aklt3, and peak_rss_mb on cool-aklt3.
- hamiltonian.assemble_hamiltonian.*: ops_per_s on sweep-aklt2.
- hamiltonian.split_parts and evolution.trotter_propagator: ops_per_s on
  trotter-aklt2.
- evolution.step_propagator: op_s_p50 on cool-aklt3 and ops_per_s on
  mc-aklt1.
- models.ground_truth.calls_per_op and cooling.compute_a0.calls_per_op:
  ops_per_s on mc-aklt1 (1 per run each); caching them should leave
  cool-aklt3 unchanged.
- cooling.measure_first_ancilla and run_iteration self time: op_s_p50 and
  op_s_p90 on mc-aklt1, once set-up is cached.
- cooling.useful_iter_frac and restarts_per_op on mc-aklt1 are fixed by the
  physics and the RNG streams; a move means the step or the stream changed.
- models.from_registry and cli.* self time: op_s_p50 on sweep-aklt2 and
  trotter-aklt2, and setup_s.

At the seed the counts are exact: sweep-aklt2 makes one hermitian_eig of
dimension 256 per grid point (hermitian_eig.calls_per_op equals
excitation_probability.calls_per_op), cool-aklt3 makes 4 per request with
dim_max 1024, mc-aklt1 3 per run and trotter-aklt2 5 per request.
"""
import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 9
P90_MIN_OPS = 100


def cap_blas_threads() -> tuple[int, int]:
    """Keep OpenBLAS at or below nproc threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        requested = nproc
    threads = max(1, min(requested, nproc))
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return nproc, threads


def import_rescool():
    """Import rescool afresh from this checkout's src/, never an installed copy."""
    for name in [m for m in sys.modules if m == "rescool" or m.startswith("rescool.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    rescool = importlib.import_module("rescool")
    importlib.import_module("rescool.cli")
    if src not in Path(rescool.__file__).resolve().parents:
        raise ImportError(f"rescool imported from {rescool.__file__}, not {src}")
    return rescool


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_info(nproc: int, threads: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "commit": git_commit(),
        "seed": seed,
    }


@dataclass
class Window:
    """What one measured stretch of the closed loop produced.

    Per op it keeps 16 bytes, so that peak_rss_mb stays the program's memory
    however many ops a run completes; op outputs are kept only when asked
    for, by the traced run that compares them.
    """

    latencies: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    values: array = field(default_factory=lambda: array("d"))
    outputs: list | None = None
    errors: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (len(self.latencies) - self.failed) / sum(self.latencies)


def measure(workload, seconds: float, tracer=None, keep_outputs=False) -> Window:
    window = Window(outputs=[] if keep_outputs else None)
    deadline = time.perf_counter() + seconds
    for index, request in enumerate(workload.requests()):
        if index and time.perf_counter() >= deadline:
            break
        scope = tracer.op(index) if tracer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                result = workload.run(request)
        except Exception as exc:  # a crashed op is a failed op; the loop goes on
            window.latencies.append(time.perf_counter() - start)
            ok, output, value = False, f"raised {type(exc).__name__}: {exc}", None
        else:
            window.latencies.append(time.perf_counter() - start)
            try:
                ok, output, value = workload.check(request, result)
            except (ValueError, IndexError, KeyError) as exc:
                ok, output, value = False, f"unparsable output: {type(exc).__name__}: {exc}", None
        if keep_outputs:
            window.outputs.append(output)
        if ok:
            window.values.append(value)
        else:
            window.failed += 1
            window.errors.append(f"op {index} {request}: {output[-500:]}")
    return window


def report_line(name: str, value, unit: str) -> str:
    if value is None:
        return f"{name:<48} {'-':>14} {unit:<9} does not apply to this run"
    return f"{name:<48} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc, threads = cap_blas_threads()
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.environ.pop("RC_SEED", None)  # the seed reaches the program only through requests
    WORKLOADS[args.workload](import_rescool(), args.seed)  # untimed; see setup_s
    repeats = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        rescool = import_rescool()
        workload = WORKLOADS[args.workload](rescool, args.seed)
        repeats.append(time.perf_counter() - start)
    setup_s = statistics.median(repeats)
    machine = machine_info(nproc, threads, args.seed)

    if args.trace:
        plain = measure(workload, args.seconds / 2, keep_outputs=True)
        tracer = Tracer()
        with tracer:
            traced = measure(workload, args.seconds / 2, tracer, keep_outputs=True)
        windows = [plain, traced]
        mismatched = sum(a != b for a, b in zip(plain.outputs, traced.outputs))
    else:
        windows = [measure(workload, args.seconds)]
        mismatched = 0

    attempted = sum(len(w.latencies) for w in windows)
    failed = sum(w.failed for w in windows) + mismatched
    misses = [miss for w in windows if (miss := workload.verdict(w.values))]
    if misses:
        failed = attempted
    errors = [e for w in windows for e in w.errors] + misses
    if mismatched:
        errors.append(f"{mismatched} traced ops printed other output than untraced ones")

    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        "machine " + json.dumps(machine),
    ]
    if args.trace:
        shown = layer_metrics(tracer.spans)
        shown["tracing_overhead"] = (plain.ops_per_s - traced.ops_per_s, "1/s")
        reported = list(shown)
    else:
        (window,) = windows
        latencies = window.latencies
        accuracy = statistics.median(window.values) if window.values else None
        shown = {
            "ops_per_s": (window.ops_per_s, "1/s"),
            "op_s_p50": (statistics.median(latencies), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_s_p90": (
                statistics.quantiles(latencies, n=10)[8]
                if len(latencies) >= P90_MIN_OPS
                else None,
                "s",
            ),
            "fail_frac": (failed / attempted, "1"),
            "e1_abs_err": (accuracy if workload.accuracy_metric == "e1_abs_err" else None, "energy"),
            "final_infidelity": (
                accuracy if workload.accuracy_metric == "final_infidelity" else None,
                "1",
            ),
        }
        # The result line carries the metrics that every workload has, that are
        # never 0 and that stay steady across runs; see the module docstring.
        reported = ["ops_per_s", "setup_s", "peak_rss_mb"]
    lines += [report_line(name, value, unit) for name, (value, unit) in shown.items()]
    lines.append(f"ops {attempted} attempted, {failed} failed")
    lines += [f"error: {e}" for e in errors[:10]]

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    metrics = {name: {"value": shown[name][0], "unit": shown[name][1]} for name in reported}
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
