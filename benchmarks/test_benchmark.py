"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q

They check the harness, not linpot: emitted metric names against
BENCHMARK.json, that corrupted outputs and raising calls are counted as
failures, and that one seed gives identical inputs and exactly repeating
counts.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_linpot()

import linpot as lp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, key):
    out = _bench("--workload", "closed-form", "--seed", str(SEED),
                 "--seconds", "0.5", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "closed-form", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_sampled_runs_the_kernel_during_the_call():
    before = signal.getsignal(signal.SIGALRM)

    def busy():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.7:
            pass
        return "done"

    result, _, samples = run.sampled(busy, lambda: 0.01)
    assert result == "done" and len(samples) >= 2
    assert run.sampled(lambda: "quick", lambda: 0.01)[2] == [0.01]
    assert signal.getsignal(signal.SIGALRM) is before


def test_corrupted_solver_state_is_a_failure(tmp_path, monkeypatch):
    inputs = workloads.setup_linear_batch(SEED, tmp_path)
    real = lp.split_step_evolve

    def corrupted(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.final_state.amps[0] += 1e-3
        return traj

    monkeypatch.setattr(lp, "split_step_evolve", corrupted)
    res = workloads.pass_linear_batch(inputs)
    assert res.failed == res.attempted == len(inputs.spec["draws"]) + 1
    assert res.margins["c01.l2"] > 1.0 and res.margins["c01.slope"] > 1.0


def test_corrupted_cli_output_is_a_failure(tmp_path, monkeypatch):
    inputs = workloads.setup_closed_form(SEED, tmp_path)
    real = workloads.cli.main

    def corrupted(argv):
        code = real(argv)
        path = inputs.data["out"] / "final_state.csv"
        lines = path.read_text().splitlines()
        x, re, im, density = lines[1000].split(",")
        lines[1000] = ",".join((x, repr(float(re) + 1e-5), im, density))
        path.write_text("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(workloads.cli, "main", corrupted)
    res = workloads.pass_closed_form(inputs)
    assert res.failed == 1
    assert res.failures[0].startswith("linpot evolve: c01.cli_final_state_l2")


def test_raising_scan_fails_every_operation(tmp_path, monkeypatch):
    inputs = workloads.setup_barrier_scan(SEED, tmp_path)

    def stuck(*args, **kwargs):
        raise RuntimeError("T and R still drifting")

    monkeypatch.setattr(lp, "width_scan", stuck)
    res = workloads.pass_barrier_scan(inputs)
    assert res.failed == res.attempted == len(inputs.data["delays"]) + 1
    assert res.steps == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    setup = workloads.WORKLOADS[name].setup
    first = workloads.input_hash(setup(SEED, tmp_path / "a"))
    assert workloads.input_hash(setup(SEED, tmp_path / "b")) == first
    assert workloads.input_hash(setup(SEED + 1, tmp_path / "c")) != first


def test_counts_repeat_exactly(tmp_path):
    originals = (lp.split_step_evolve, np.fft.fft, workloads.cli.main)
    counts = []
    for attempt in range(2):
        inputs = workloads.setup_barrier_scan(SEED, tmp_path / str(attempt))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = workloads.pass_barrier_scan(inputs)
        finally:
            tracer.uninstall()
        assert res.failed == 0
        metrics = tracer.pass_metrics(1.0)
        counts.append({k: metrics[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["tunneling.solver_reentries"] > 0
    assert counts[0]["tunneling.steps_to_stationary"] == res.steps
    assert counts[0]["fft.calls"] > 2 * res.steps
    assert (lp.split_step_evolve, np.fft.fft, workloads.cli.main) == originals
