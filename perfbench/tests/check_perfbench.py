"""The benchmark's own tests, at a tiny input size.

Run from the root of a checkout (the file pattern is not the tier-1
``test_*.py`` one, so the default test run leaves these out)::

    python -m pytest -q perfbench/tests -o python_files='check_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS, Checks, Measure  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    done = _run(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["perfbench"]
    assert set(detail["host"]) >= {"python", "numpy", "nproc", "git_sha"}
    return json.loads(lines[-1])


def test_config_names_the_workloads_and_metrics():
    assert [w["name"] for w in CONFIG["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("seed", [3, 4])
def test_timed_run_prints_every_end_to_end_metric(workload, seed):
    result = _result(workload, seed, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result = _result(workload, 5, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_layers_a_workload_exercises_report_work():
    metrics = {
        workload: _result(workload, 6, trace=1)["metrics"]
        for workload in ("sweep-deep", "verify", "serve-mixed")
    }
    assert metrics["sweep-deep"]["batch.trials"]["value"] > 0
    assert metrics["sweep-deep"]["mc.states"]["value"] == 0
    assert metrics["verify"]["mc.states"]["value"] > 0
    assert metrics["verify"]["fuzz.runs"]["value"] > 0
    assert metrics["verify"]["sim.fork_calls"]["value"] > 0
    assert metrics["verify"]["batch.trials"]["value"] == 0
    assert metrics["serve-mixed"]["serve.requests"]["value"] > 0
    assert metrics["serve-mixed"]["store.refresh_calls"]["value"] > 0
    assert metrics["serve-mixed"]["serve.jobs"]["value"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_is_inert(workload, tmp_path):
    """Rows, content hashes, mc statistics and store digests are the
    same with the wrappers on and off, and uninstall restores every
    original function."""
    from repro.experiments import sweep
    from repro.ring.configuration import Configuration

    originals = (sweep.execute_sweep, vars(Configuration)["canonical_key"])
    bench = WORKLOADS[workload](7, tmp_path, "tiny")
    try:
        bench.setup()
        bench.start_loop(traced=False)
        plain = Measure()
        for index in range(2):
            bench.run_pass(index, plain)
        bench.stop_loop(plain)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            bench.start_loop(traced=True)
            traced = Measure()
            for index in range(2):
                bench.run_pass(index, traced)
            server_dumps = bench.stop_loop(traced)
        finally:
            assert tracing.uninstall() is tracer
        assert (sweep.execute_sweep, vars(Configuration)["canonical_key"]) == originals
        assert plain.outputs == traced.outputs
        checks = Checks()
        bench.check(traced, checks)
        assert checks.failed == 0, checks.messages
        dumps = [tracer.to_dict()] + server_dumps
        assert tracing.layer_metrics(dumps)["trace.spans"] > 0
    finally:
        bench.close()


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(PERFBENCH, bare / "perfbench")
        done = _run(
            "--workload", "verify", "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=bare,
        )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
