"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
from worker import REFERENCE, REFERENCE_SEED, execute, run_phase  # noqa: E402
from workloads import WORKLOADS, lb  # noqa: E402


@pytest.fixture(autouse=True)
def cli_sources(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


def one_round(name, seed, tracer=None, reference=()):
    return run_phase(WORKLOADS[name](seed), 0, 1, 0, tracer, reference)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_of_the_reference_seed_passes(name):
    reference = json.loads(REFERENCE.read_text())[name]
    result = one_round(name, REFERENCE_SEED, reference=reference)
    assert result["attempted"] == len(WORKLOADS[name].slots)
    assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    assert WORKLOADS[name](5).round(3) == WORKLOADS[name](5).round(3)
    assert WORKLOADS[name](5).round(3) != WORKLOADS[name](6).round(3)


def test_injected_wrong_answer_counts_as_failure(monkeypatch):
    real = lb.size_bound
    calls = []

    def off_by_one(n, cond):
        result = real(n, cond)
        calls.append(n)
        return dataclasses.replace(result, value=result.value + 1) if len(calls) == 1 else result

    monkeypatch.setattr(lb, "size_bound", off_by_one)
    result = one_round("bounds", 11)
    assert result["failed"] == 1
    assert "kind=" in result["failures"][0] and "CheckFailed" in result["failures"][0]


def test_wrong_digest_counts_as_failure():
    workload = WORKLOADS["chains"](REFERENCE_SEED)
    op = workload.round(0)[0]
    _, _, error = execute(workload, op, reference=["0" * 16])
    assert error == "answer differs from the reference digest"


@pytest.mark.parametrize(
    "name, idle",
    [
        ("bounds", ("families.", "chaincount.optimize_s")),
        ("chains", ("families.", "binom.calls_large_n")),
        ("oracles", ("chaincount.optimize_s", "levelbounds.")),
    ],
)
def test_trace_reads_zero_on_layers_a_workload_skips(name, idle):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        result = one_round(name, 3, tracer)
    finally:
        restore()
    assert result["failed"] == 0, result["failures"]
    layers = tracer.layer_metrics(result["attempted"])
    assert set(layers) == set(tracing.LAYER_METRICS)
    for metric, value in layers.items():
        if metric.startswith(idle):
            assert value == 0, metric
    busy = {"bounds": "levelbounds.dp_s", "chains": "chaincount.optimize_s", "oracles": "families.satisfies_s"}
    assert layers[busy[name]] > 0
    assert all(span[2] is not None for span in tracer.spans)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
