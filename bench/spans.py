"""Span tracer for the benchmark's traced run.

The tracer wraps rescool's public layer functions from outside the program.
rescool imports names with ``from .x import y``, so one function is bound in
several modules (``propagator`` lives in ``linalg`` and is also bound in
``evolution``, ``sweep``, ``acceptance`` and the package itself).  install()
replaces every binding of every target in every loaded ``rescool`` module and
restore() puts each original back.  A target the source no longer defines is
skipped and reports 0 calls, so removing a function does not break the
benchmark.

Spans carry name, start, end, parent index and op id.  They stay in memory
until dump() writes them out after the run.  A span's self time is its
duration minus the durations of its children; spans nest on one thread, so
children never overlap.
"""
from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import numpy as np

PACKAGE = "rescool"
ROOT_SPAN = "op"

# Layer module -> public functions whose calls become spans.
TARGETS = {
    "models": ("from_registry", "ground_truth"),
    "linalg": ("hermitian_eig", "propagator"),
    "hamiltonian": ("assemble_hamiltonian", "split_parts"),
    "evolution": ("step_propagator", "trotter_propagator"),
    "cooling": (
        "run_algorithm",
        "run_iteration",
        "measure_first_ancilla",
        "compute_a0",
        "render_report",
    ),
    "sweep": ("scan", "excitation_probability", "render_csv"),
    "cli": ("main",),
}

# Real flops of one complex Hermitian eigendecomposition with vectors: the
# 9 n^3 estimate for the symmetric QR algorithm (Golub & Van Loan), times 4
# for complex arithmetic.  Computed from the dimension, not measured.
EIG_FLOPS_PER_N3 = 36


def target_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


def _leading_dim(args, kwargs, outcome) -> int:
    """Row count of the first argument: the matrix dimension for eig and assembly."""
    first = args[0] if args else next(iter(kwargs.values()), None)
    shape = np.shape(first)
    return int(shape[0]) if shape else 0


def _outcome(args, kwargs, record) -> str | None:
    return getattr(record, "outcome", None)


def _final_streak(args, kwargs, report) -> int:
    """Iterations of the completed excited streak; 0 when the run raised."""
    streak = 0
    for record in reversed(getattr(report, "records", ())):
        if getattr(record, "outcome", None) != "excited":
            break
        streak += 1
    return streak


# Extra facts recorded on a span from its call's arguments or result.
PROBES = {
    "linalg.hermitian_eig": _leading_dim,
    "hamiltonian.assemble_hamiltonian": _leading_dim,
    "cooling.run_iteration": _outcome,
    "cooling.run_algorithm": _final_streak,
}


class Span:
    __slots__ = ("op", "name", "parent", "start", "end", "info")

    def __init__(self, op, name, parent):
        self.op = op
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None


class Tracer:
    """Context manager: patches on enter, restores every binding on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        wrappers = {}
        for module_name, fns in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            for fn_name in fns:
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{module_name}.{fn_name}"))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> Span:
        span = Span(self._op, name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        probe = PROBES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self._close(span)
                if probe is not None:
                    span.info = probe(args, kwargs, outcome)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; every span opened inside carries op_id."""
        self._op = op_id
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(
                    json.dumps(
                        {
                            "op": span.op,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "self": own,
                            "info": span.info,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> list[float]:
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each as (value, unit), averaged over ops."""
    ops = [span for span in spans if span.name == ROOT_SPAN]
    n_ops = len(ops)
    op_time = sum(span.end - span.start for span in ops)
    calls: Counter[str] = Counter()
    own_time: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own_time[span.name] += own
    metrics = {}
    for name in target_names():
        metrics[f"{name}.calls_per_op"] = (calls[name] / n_ops, "calls/op")
        metrics[f"{name}.self_ms_per_op"] = (1e3 * own_time[name] / n_ops, "ms/op")
        metrics[f"{name}.share"] = (own_time[name] / op_time, "fraction")

    def infos(name):
        return [span.info for span in spans if span.name == name]

    dims = infos("linalg.hermitian_eig")
    metrics["linalg.hermitian_eig.dim_max"] = (max(dims, default=0), "dim")
    metrics["linalg.hermitian_eig.flops_per_op"] = (
        sum(EIG_FLOPS_PER_N3 * n**3 for n in dims) / n_ops,
        "flop/op",
    )
    metrics["hamiltonian.assemble_hamiltonian.bytes_per_op"] = (
        sum(16 * (4 * n) ** 2 for n in infos("hamiltonian.assemble_hamiltonian")) / n_ops,
        "B/op",
    )
    outcomes = infos("cooling.run_iteration")
    useful = sum(infos("cooling.run_algorithm"))
    metrics["cooling.useful_iter_frac"] = (
        useful / len(outcomes) if outcomes else 0.0,
        "fraction",
    )
    metrics["cooling.restarts_per_op"] = (outcomes.count("ground") / n_ops, "1/op")
    return metrics
