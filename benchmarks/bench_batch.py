"""Batch-backend throughput: columnar trials vs serial object trials.

The acceptance case for the columnar engine: one pinned sweep cell
(``known_n_full``, n=1024, k=16, sync — the fused-round sweet spot at
production ring sizes) run as a single B=512 numpy batch must beat the
object engine's per-trial wall clock by **at least 10x**.  The object
baseline is measured on a deterministic sample of the very same specs,
so both sides pay identical placement/scheduler construction costs and
the ratio isolates the execution model.  The batch side takes the best
of two full runs — scheduler noise on a shared machine only ever adds
time, so the minimum is the robust estimate.
"""

from __future__ import annotations

import time
from typing import List

from repro.experiments.runner import run_experiment
from repro.sim.batch import run_batch
from repro.sim.batch.runner import validation_sample
from repro.spec import ExperimentSpec, PlacementSpec

from benchmarks.conftest import report_lines

#: the pinned acceptance cell and the floor the batch backend must clear.
_ALGORITHM, _N, _K, _SCHEDULER = "known_n_full", 1024, 16, "sync"
_BATCH_TRIALS = 512
_BATCH_ROUNDS = 2  # best-of: timing noise only ever adds time
_ORACLE_SAMPLE = 8
_REQUIRED_SPEEDUP = 10.0


def _specs(trials: int) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm=_ALGORITHM,
            placement=PlacementSpec(
                kind="random", ring_size=_N, agent_count=_K, seed=9000 + trial
            ),
            scheduler=_SCHEDULER,
            scheduler_seed=(9000 + trial) ^ 0x5DEECE66D,
        )
        for trial in range(trials)
    ]


def test_batch_backend_speedup_pinned_cell(benchmark):
    specs = _specs(_BATCH_TRIALS)

    def batch_run():
        times = []
        for _ in range(_BATCH_ROUNDS):
            start = time.perf_counter()
            results = run_batch(specs)
            times.append(time.perf_counter() - start)
        return results, min(times)

    results, batch_seconds = benchmark.pedantic(
        batch_run, rounds=1, iterations=1
    )
    assert all(result.report.ok for result in results)
    batch_per_trial = batch_seconds / _BATCH_TRIALS

    sample = validation_sample(_BATCH_TRIALS, _ORACLE_SAMPLE)
    start = time.perf_counter()
    for trial in sample:
        run_experiment(specs[trial])
    object_per_trial = (time.perf_counter() - start) / len(sample)

    speedup = object_per_trial / batch_per_trial
    report_lines(
        "Batch backend - pinned acceptance cell",
        [
            f"cell: {_ALGORITHM} n={_N} k={_K} {_SCHEDULER}, B={_BATCH_TRIALS}",
            f"object engine: {object_per_trial * 1e3:.3f} ms/trial "
            f"(sample of {len(sample)})",
            f"batch engine:  {batch_per_trial * 1e3:.3f} ms/trial",
            f"speedup: {speedup:.1f}x (floor: {_REQUIRED_SPEEDUP:.0f}x)",
        ],
    )
    assert speedup >= _REQUIRED_SPEEDUP, (
        f"batch backend managed only {speedup:.1f}x over the object engine "
        f"on the pinned cell (floor: {_REQUIRED_SPEEDUP:.0f}x)"
    )
