"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""
import json
import shutil
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

import run
import spans
from workloads import QUALIFY_FLOOR, WORKLOADS, MonteCarlo

SEED = 7
# How many ops of each workload the output tests run, untraced and traced: about 6 s.
FEW_OPS = {"sweep-aklt2": 1, "cool-aklt3": 1, "mc-aklt1": 40, "trotter-aklt2": 3}
EIG_CALLS_PER_OP = {"cool-aklt3": 4, "mc-aklt1": 3, "trotter-aklt2": 5}
EIG_DIM_MAX = {"sweep-aklt2": 256, "cool-aklt3": 1024, "mc-aklt1": 64, "trotter-aklt2": 256}


@pytest.fixture(scope="module")
def rescool():
    return run.import_rescool()


@pytest.fixture(scope="module")
def built(rescool):
    return {name: make(rescool, SEED) for name, make in WORKLOADS.items()}


@pytest.fixture(scope="module")
def replayed(built):
    """Each workload's first ops, untraced and then traced, with the tracer."""
    runs = {}
    for name, workload in built.items():
        requests = list(islice(workload.requests(), FEW_OPS[name]))
        plain = [workload.check(r, workload.run(r)) for r in requests]
        traced = []
        with spans.Tracer() as tracer:
            for index, request in enumerate(requests):
                with tracer.op(index):
                    result = workload.run(request)
                traced.append(workload.check(request, result))
        runs[name] = (requests, plain, traced, tracer)
    return runs


def ground_weight(rescool, model_name: str, bits: str) -> float:
    _, chi1, _ = rescool.ground_truth(rescool.from_registry(model_name))
    return rescool.ground_overlap(chi1, np.eye(2 ** len(bits))[int(bits, 2)])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_yields_same_requests(rescool, name):
    def first(seed):
        return list(islice(WORKLOADS[name](rescool, seed).requests(), 12))

    assert first(SEED) == first(SEED)
    assert first(SEED) != first(SEED + 1)


def test_initial_states_have_ground_weight(rescool, built):
    assert len(built["mc-aklt1"].inits) == 6
    for name, expected in (("sweep-aklt2", 18), ("cool-aklt3", 54), ("trotter-aklt2", 18)):
        workload = built[name]
        assert len(workload.inits) == expected
        model_name = workload.model_name
        for request in islice(workload.requests(), 40):
            assert ground_weight(rescool, model_name, request.init) > QUALIFY_FLOOR
    assert ground_weight(rescool, "aklt1", built["mc-aklt1"].init) > QUALIFY_FLOOR


def test_every_sweep_window_contains_the_resonance(rescool, built):
    e1, _, _ = rescool.ground_truth(rescool.from_registry("aklt2"))
    for request in islice(built["sweep-aklt2"].requests(), 500):
        assert request.lo < e1 + 1.0 < request.hi
        assert 0 < request.step < request.hi - request.lo


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_output_is_byte_identical(replayed, name):
    _, plain, traced, _ = replayed[name]
    assert all(checked.ok for checked in plain + traced)
    assert [c.output for c in traced] == [c.output for c in plain]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_op_wall_time(replayed, name):
    _, _, _, tracer = replayed[name]
    own = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == spans.ROOT_SPAN]
    assert len(roots) == FEW_OPS[name]
    for root in roots:
        total = sum(t for s, t in zip(tracer.spans, own) if s.op == root.op)
        assert total == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-12)
    assert all(t >= -1e-9 for t in own)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_eig_counts_follow_the_workload_shape(replayed, name):
    requests, _, _, tracer = replayed[name]
    metrics = spans.layer_metrics(tracer.spans)
    if name == "sweep-aklt2":
        expected = sum(r.points for r in requests) / len(requests)
    else:
        expected = EIG_CALLS_PER_OP[name]
    assert metrics["linalg.hermitian_eig.calls_per_op"][0] == expected
    assert metrics["linalg.hermitian_eig.dim_max"][0] == EIG_DIM_MAX[name]


def test_tracer_restores_every_binding(rescool):
    def bindings():
        return {
            (name, attr): value
            for name, module in list(sys.modules.items())
            if name == "rescool" or name.startswith("rescool.")
            for attr, value in vars(module).items()
            if callable(value)
        }

    before = bindings()
    with spans.Tracer() as tracer:
        assert rescool.cli.main is not before[("rescool.cli", "main")]
        assert rescool.propagator is not before[("rescool", "propagator")]
        assert tracer.spans == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_missing_function_reports_zero_calls(rescool, monkeypatch):
    monkeypatch.delattr(rescool.hamiltonian, "split_parts")
    with spans.Tracer() as tracer:
        with tracer.op(0):
            rescool.hermitian_eig(np.eye(2))
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["hamiltonian.split_parts.calls_per_op"][0] == 0
    assert metrics["linalg.hermitian_eig.calls_per_op"][0] == 1


def test_monte_carlo_window(built):
    mc: MonteCarlo = built["mc-aklt1"]
    n = 10000
    assert mc.lower < mc.upper
    inside = round(0.5 * (mc.lower + mc.upper) * n)
    assert mc.verdict([1.0] * inside + [0.0] * (n - inside)) is None
    above = round((mc.upper + 0.05) * n)
    assert mc.verdict([1.0] * above + [0.0] * (n - above)) is not None


def bench_result(*flags: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trotter-aklt2", "--seed", "3", *flags],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_names_known_workloads():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"] for w in declared} <= set(WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
    done = bench_result("--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = bench_result("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
