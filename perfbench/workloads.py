"""The benchmark's four workloads.

Each workload is a closed loop of *passes*, driven from one process.
A pass is deterministic given ``(seed, pass index)``: the sweeps and
the verification repeat the inputs the seed fixes (base seeds, the
placement rotation, the fuzz seed), and the service mix draws a fresh
request sequence per pass index.  A traced and an untraced loop thus
run the same inputs pass by pass.  The program under test only ever
sees the generated specs, placements and requests.

Why these four (see README.md for the full table):

* ``sweep-wide`` — many small object-engine cells; ``Engine.run`` and
  per-cell overhead dominate, the warm resume exercises store reads.
* ``sweep-deep`` — few cells, tens of trials each, on the batch
  backend; shows where batching wins (full-knowledge ``sync``) and
  where it loses (``random`` scheduler, ``known_k_logspace``).
* ``verify`` — exhaustive model checking plus a fuzz campaign;
  canonical packing, ``Engine.fork`` and the oracles do the work.
* ``serve-mixed`` — HTTP lookups, filtered pages and job submissions
  against a live ``repro serve``; the store index, ``refresh`` and
  the HTTP layer dominate, and job writes contend with reads.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Checks", "Measure", "REFERENCE_S", "WORKLOADS", "derive_seed", "reference_s",
]

ALGORITHMS = ("known_k_full", "known_n_full", "known_k_logspace", "unknown")
SCHEDULERS = ("sync", "random", "burst", "laggard")


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed from the benchmark seed and a label path."""
    key = "|".join(str(part) for part in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big") >> 1


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (0 <= q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one sample."""
    if not values:
        return {"samples": 0}
    return {
        "samples": len(values),
        "median": quantile(values, 0.5),
        "p25": quantile(values, 0.25),
        "p75": quantile(values, 0.75),
    }


class Checks:
    """Output checks: every check is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


#: What the reference loop takes on the nominal host.  Timings are
#: reported in seconds of that host: each operation's measured time is
#: multiplied by ``REFERENCE_S`` over the reference loop's time around it.
REFERENCE_S = 0.005
#: Least time between two reference measurements inside a loop.
REFERENCE_EVERY_S = 0.1


def reference_loop() -> int:
    """Fixed interpreter-bound work (dicts, tuples, strings, a sort) that
    shares no code with the program, so its time tracks only the speed
    the host gives the benchmark at that moment.  The cyclic garbage
    collector is off meanwhile: a collection would scan whatever the
    program left alive, and the loop would time that instead."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: Dict[int, int] = {}
        items = []
        for i in range(5000):
            key = (i * 2654435761) & 0x3FF
            table[key] = table.get(key, 0) + i
            items.append((key, str(i)))
        items.sort()
        return len(table) + len(items)
    finally:
        if enabled:
            gc.enable()


def reference_s() -> float:
    """Median time of five reference loops, in seconds."""
    times = []
    for _ in range(5):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return quantile(times, 0.5)


class Measure:
    """What one timed loop collected.

    ``ops`` maps an operation's identity (a sweep cell, a fuzz run, a
    request kind) to its measured times in seconds, one per pass or per
    call; ``sums`` holds counters; ``outputs`` holds each pass's results
    for the output checks.

    A shared host runs the benchmark at a speed that drifts by a third
    within minutes, the same for every operation at that moment.  So
    the loop times ``reference_loop`` between operations (``calibrate``)
    and ``scaled`` divides each operation's time by the reference times
    that bracket it, which leaves what the program costs on the nominal
    host.
    """

    def __init__(self) -> None:
        self.sums: Dict[str, float] = {}
        self.ops: Dict[str, List[float]] = {}
        self.outputs: List[Dict[str, object]] = []
        self.references: List[float] = []
        #: Per op time: (references before it started, before it ended).
        self._brackets: Dict[str, List[Tuple[int, int]]] = {}
        self._next_reference = float("-inf")

    def add(self, name: str, amount: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self.sums.get(name, 0.0)

    def calibrate(self, force: bool = False) -> None:
        """Time one reference loop, unless one ran less than
        ``REFERENCE_EVERY_S`` ago.  Call it between operations only."""
        start = perf_counter()
        if start < self._next_reference and not force:
            return
        reference_loop()
        end = perf_counter()
        self.references.append(end - start)
        self.add("reference_s", end - start)
        self._next_reference = end + REFERENCE_EVERY_S

    def op(self, name: str, seconds: float) -> None:
        """Record an operation that just ended and ran no reference loop."""
        self._record(name, seconds, len(self.references))

    def _record(self, name: str, seconds: float, since: int) -> None:
        self.ops.setdefault(name, []).append(seconds)
        self._brackets.setdefault(name, []).append((since, len(self.references)))

    def time(self, name: str, call):
        """Run ``call()`` as operation ``name`` and return its result.
        ``call`` may ``calibrate`` from inside (a progress hook); the
        reference loops it runs are left out of the operation's time."""
        self.calibrate()
        since = len(self.references)
        spent = self.get("reference_s")
        start = perf_counter()
        result = call()
        elapsed = perf_counter() - start - (self.get("reference_s") - spent)
        self._record(name, elapsed, since)
        return result

    def scaled(self, name: str) -> List[float]:
        """``name``'s times in seconds of the nominal host: each one over
        the mean of the reference times from the last one before the
        operation to the first one after it."""
        scaled = []
        for seconds, (first, ended) in zip(self.ops[name], self._brackets[name]):
            window = self.references[max(first - 1, 0):ended + 1]
            scaled.append(
                seconds * REFERENCE_S / (sum(window) / len(window))
                if window else seconds
            )
        return scaled

    def typical(self, name: str) -> float:
        """The median scaled time of one operation over its repetitions."""
        return quantile(self.scaled(name), 0.5)


def _rate(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stats(row: Dict[str, object]) -> Tuple[object, ...]:
    return (row["total_moves"], row["ideal_time"], row["max_memory_bits"])


class Workload:
    """One workload: set-up, deterministic passes, checks, metrics."""

    name = ""

    def __init__(self, seed: int, workdir: Path, size: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.size = size

    def setup(self) -> None:
        """Everything before the timed phase (inputs, stores, servers)."""

    def start_loop(self, traced: bool) -> None:
        """Called before each timed loop (the serve workload starts its
        server here, through the tracing launcher when ``traced``)."""

    def stop_loop(self, measure: Measure) -> List[Dict[str, object]]:
        """Called after each timed loop; returns server trace dumps."""
        return []

    def run_pass(self, index: int, measure: Measure) -> None:
        raise NotImplementedError

    def check(self, measure: Measure, checks: Checks) -> None:
        raise NotImplementedError

    def metrics(self, measure: Measure) -> Dict[str, float]:
        raise NotImplementedError

    def detail(self, measure: Measure) -> Dict[str, object]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process and release every file set-up created."""

    def _fresh_dir(self, label: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=self.workdir))


# -- sweep-wide ---------------------------------------------------------------


class SweepWide(Workload):
    """Cold object-engine sweeps into fresh stores, then warm resumes.

    Every pass repeats the same seeded sweep, so each cell's run time is
    sampled once per pass; throughput and latency use each cell's median
    scaled time over the passes.
    """

    name = "sweep-wide"
    RESUMES = 8

    def setup(self) -> None:
        from repro.experiments.sweep import SweepSpec, expand_cells
        from repro.store import RunStore  # noqa: F401 - loads sqlite in set-up

        tiny = self.size == "tiny"
        self.spec = SweepSpec(
            algorithms=ALGORITHMS,
            grid=((12, 3), (16, 4)) if tiny else ((32, 4), (128, 8), (256, 16)),
            schedulers=("sync", "random") if tiny else SCHEDULERS,
            trials=1 if tiny else 2,
            base_seed=derive_seed(self.seed, self.name),
        )
        self.cells = expand_cells(self.spec)

    def run_pass(self, index: int, measure: Measure) -> None:
        from repro.experiments.sweep import execute_sweep
        from repro.store import RunStore

        root = self._fresh_dir("wide")
        store = RunStore(root)
        cells = iter(range(len(self.cells)))
        started = [perf_counter()]

        def progress(done: int, total: int) -> None:
            measure.op(f"cell{next(cells)}", perf_counter() - started[0])
            measure.calibrate()
            started[0] = perf_counter()

        measure.calibrate()
        started[0] = perf_counter()
        cold = execute_sweep(self.spec, processes=1, store=store, progress=progress)
        store.close()
        resumed = []
        for _ in range(self.RESUMES):
            measure.calibrate()
            start = perf_counter()
            handle = RunStore(root)
            warm = execute_sweep(self.spec, processes=1, store=handle)
            measure.op("resume", perf_counter() - start)
            handle.close()
            resumed.append((warm.cached, warm.rows == cold.rows))
        store = RunStore(root)
        digest = store.digest()
        store.close()
        shutil.rmtree(root, ignore_errors=True)
        measure.outputs.append({
            "index": index,
            "rows": cold.rows,
            "executed": cold.executed,
            "resumed": resumed,
            "digest": digest,
        })

    def check(self, measure: Measure, checks: Checks) -> None:
        from repro.experiments.sweep import run_cell

        first = measure.outputs[0]
        for output in measure.outputs:
            rows = output["rows"]
            for row in rows:
                checks.expect(bool(row["uniform"]), f"non-uniform row {row}")
            checks.expect(output["executed"] == len(rows), "cold sweep hit the cache")
            checks.expect(
                rows == first["rows"] and output["digest"] == first["digest"],
                f"pass {output['index']} did not repeat pass 0",
            )
            for cached, same_rows in output["resumed"]:
                checks.expect(
                    cached == len(rows) and same_rows,
                    f"pass {output['index']}: warm resume differs from the cold sweep",
                )
        # The simulated statistics repeat exactly outside the sweep too:
        # re-run a seeded sample of cells on their own.
        rng = random.Random(derive_seed(self.seed, self.name, "repeat"))
        for position in rng.sample(range(len(self.cells)), min(6, len(self.cells))):
            again = run_cell(self.cells[position])
            checks.expect(
                _stats(again) == _stats(first["rows"][position]),
                f"cell {self.cells[position]} did not repeat its statistics",
            )

    def metrics(self, measure: Measure) -> Dict[str, float]:
        cells = [measure.typical(f"cell{i}") for i in range(len(self.cells))]
        return {
            "work_per_s": _rate(len(cells), sum(cells)),
            "aux_per_s": _rate(len(cells), measure.typical("resume")),
            "op_p50_ms": 1000.0 * quantile(cells, 0.5),
            "op_tail_ms": 1000.0 * quantile(cells, 0.9),
            "peak_rss_mb": _rss_mb_self(),
        }

    def detail(self, measure: Measure) -> Dict[str, object]:
        cells = [measure.typical(f"cell{i}") for i in range(len(self.cells))]
        return {
            "runs_per_s": _rate(len(cells), sum(cells)),
            "runs_per_pass": len(cells),
            "resume_s": summary(measure.scaled("resume")),
        }


# -- sweep-deep ---------------------------------------------------------------


class SweepDeep(Workload):
    """Batch-backend sweeps of few cells with many trials each.

    A cell here is one ``(algorithm, n, k, scheduler)`` sweep of many
    trials, which the batch backend runs as one group.  Every pass
    repeats the same seeded cells; figures use each cell's median scaled
    time.
    """

    name = "sweep-deep"
    RESUMES = 3

    #: (algorithm, (n, k), scheduler, trials).  Full-knowledge ``sync``
    #: cells are where batching wins 3-10x; ``random``-scheduler,
    #: ``known_k_logspace`` and few-trial ``unknown`` cells are where it
    #: runs at or below object-engine speed.
    CELLS = (
        ("known_n_full", (256, 16), "sync", 48),
        ("known_k_full", (128, 8), "sync", 48),
        ("known_k_full", (64, 8), "random", 24),
        ("known_k_logspace", (64, 8), "sync", 24),
        ("unknown", (32, 4), "random", 16),
        ("unknown", (64, 8), "sync", 4),
    )
    TINY_CELLS = (
        ("known_n_full", (32, 4), "sync", 6),
        ("known_k_full", (16, 4), "random", 4),
        ("known_k_logspace", (16, 4), "sync", 4),
    )

    def setup(self) -> None:
        import repro.sim.batch  # noqa: F401 - numpy and the kernels load here
        from repro.experiments.sweep import SweepSpec

        cells = self.TINY_CELLS if self.size == "tiny" else self.CELLS
        #: Object-engine seconds per trial, per cell, timed by check().
        self.object_s: Dict[int, List[float]] = {}
        self.specs = [
            SweepSpec(
                algorithms=(algorithm,),
                grid=(grid,),
                schedulers=(scheduler,),
                trials=trials,
                base_seed=derive_seed(self.seed, self.name),
            )
            for algorithm, grid, scheduler, trials in cells
        ]
        self.trials = sum(spec.trials for spec in self.specs)

    def run_pass(self, index: int, measure: Measure) -> None:
        from repro.experiments.sweep import execute_sweep
        from repro.store import RunStore

        root = self._fresh_dir("deep")
        store = RunStore(root)
        cells = []
        for position, spec in enumerate(self.specs):
            measure.calibrate()
            start = perf_counter()
            cold = execute_sweep(spec, processes=1, store=store, backend="batch")
            measure.op(f"cell{position}", perf_counter() - start)
            cells.append({"rows": cold.rows, "executed": cold.executed})
        store.close()
        for _ in range(self.RESUMES):
            measure.calibrate()
            start = perf_counter()
            handle = RunStore(root)
            warm = [
                execute_sweep(spec, processes=1, store=handle, backend="batch")
                for spec in self.specs
            ]
            measure.op("resume", perf_counter() - start)
            handle.close()
        handle = RunStore(root)
        # Pass 0's records feed the object-engine comparison; later passes
        # keep only the digest, so memory does not grow with the passes.
        records = {
            record.content_hash: record.result for record in handle.iter_records()
        } if index == 0 else None
        digest = handle.digest()
        handle.close()
        shutil.rmtree(root, ignore_errors=True)
        for cell, outcome in zip(cells, warm):
            cell["resumed"] = (outcome.cached, outcome.rows == cell["rows"])
        measure.outputs.append({
            "index": index,
            "cells": cells,
            "records": records,
            "digest": digest,
        })

    def check(self, measure: Measure, checks: Checks) -> None:
        from repro.experiments.runner import run_experiment
        from repro.experiments.sweep import expand_cells
        from repro.store.records import result_to_payload

        first = measure.outputs[0]
        for output in measure.outputs:
            # Equal digests mean every archived statistic repeated.
            checks.expect(
                output["digest"] == first["digest"],
                f"pass {output['index']} archived other records than pass 0",
            )
            for cell in output["cells"]:
                rows = cell["rows"]
                for row in rows:
                    checks.expect(bool(row["uniform"]), f"non-uniform row {row}")
                checks.expect(cell["executed"] == len(rows), "cold sweep hit the cache")
                cached, same_rows = cell["resumed"]
                checks.expect(
                    cached == len(rows) and same_rows,
                    f"pass {output['index']}: warm resume differs from the cold sweep",
                )
        # A seeded sample of batch trials must be byte-identical to the
        # object engine.  The timed path runs without validate_backend,
        # so the comparison happens here, outside the timed phase.
        rng = random.Random(derive_seed(self.seed, self.name, "oracle"))
        for position, spec in enumerate(self.specs):
            cells = expand_cells(spec)
            for cell in rng.sample(cells, min(2, len(cells))):
                experiment = cell.to_experiment_spec()
                start = perf_counter()
                oracle = run_experiment(experiment)
                self.object_s.setdefault(position, []).append(perf_counter() - start)
                expected = json.dumps(result_to_payload(oracle), sort_keys=True)
                actual = json.dumps(
                    first["records"].get(experiment.content_hash()), sort_keys=True
                )
                checks.expect(
                    expected == actual,
                    f"batch trial {cell} differs from the object engine",
                )

    def metrics(self, measure: Measure) -> Dict[str, float]:
        cells = [measure.typical(f"cell{i}") for i in range(len(self.specs))]
        return {
            "work_per_s": _rate(self.trials, sum(cells)),
            "aux_per_s": _rate(self.trials, measure.typical("resume")),
            "op_p50_ms": 1000.0 * quantile(cells, 0.5),
            "op_tail_ms": 1000.0 * quantile(cells, 0.9),
            "peak_rss_mb": _rss_mb_self(),
        }

    def detail(self, measure: Measure) -> Dict[str, object]:
        cells = [measure.typical(f"cell{i}") for i in range(len(self.specs))]
        # Per cell: batch seconds per trial (median measured cell time /
        # trials) against the object engine's, from the oracle re-runs in
        # check(); both as measured, minutes apart.
        per_trial = {}
        for i, spec in enumerate(self.specs):
            label = (
                f"{spec.algorithms[0]} n={spec.grid[0][0]} k={spec.grid[0][1]} "
                f"{spec.schedulers[0]} x{spec.trials}"
            )
            batch = quantile(measure.ops[f"cell{i}"], 0.5) / spec.trials
            objects = self.object_s.get(i)
            per_trial[label] = {
                "batch_s": batch,
                "object_s": quantile(objects, 0.5) if objects else None,
            }
        return {
            "runs_per_s": _rate(self.trials, sum(cells)),
            "runs_per_pass": self.trials,
            "per_trial": per_trial,
            "resume_s": summary(measure.scaled("resume")),
        }


# -- verify -------------------------------------------------------------------


class Verify(Workload):
    """Model checking (one pinned cell, one placement grid) plus fuzzing.

    Every pass repeats the same seeded checks and campaign; figures use
    the median scaled time of each check and of each fuzz run over the
    passes and campaigns.
    """

    name = "verify"

    #: The pinned cell and the fuzzed placement.  The seed picks a
    #: rotation of each: every rotation has the same canonical state
    #: space and the same run lengths, so the state count stays fixed and
    #: the work does not depend on the seed.
    PINNED = ("unknown", 10, (0, 3, 7), 8009)
    #: Seven placements, 3126 states: small enough that a 25-second run
    #: holds four or more passes even on a slow host (with n=8 k=4,
    #: 14045 states, a pass took up to 10 s and a run held two).
    GRID = ("known_n_full", 8, 3, 3126)
    #: (algorithm, n, homes, budget) of the fuzz campaign.
    FUZZ = ("known_k_logspace", 32, (0, 5, 13, 22), 20)
    #: Campaigns per pass: fuzz runs are short, so each gets two samples
    #: per pass.
    CAMPAIGNS = 2
    TINY_PINNED = ("unknown", 6, (0, 2), 518)
    TINY_GRID = ("known_n_full", 5, 2, 86)
    TINY_FUZZ = ("known_k_logspace", 12, (0, 3, 7), 6)

    def _rotated(self, n: int, homes, label: str):
        from repro.ring.placement import Placement

        shift = derive_seed(self.seed, self.name, label) % n
        return Placement(
            ring_size=n, homes=tuple(sorted((home + shift) % n for home in homes))
        )

    def setup(self) -> None:
        import repro.mc  # noqa: F401 - the checker loads in set-up
        from repro.fuzz import FuzzSpec
        from repro.spec import PlacementSpec

        tiny = self.size == "tiny"
        self.pinned = self.TINY_PINNED if tiny else self.PINNED
        self.grid = self.TINY_GRID if tiny else self.GRID
        _, n, homes, _ = self.pinned
        self.placement = self._rotated(n, homes, "rotation")
        algorithm, n, homes, budget = self.TINY_FUZZ if tiny else self.FUZZ
        self.fuzz_spec = FuzzSpec(
            algorithm=algorithm,
            placement=PlacementSpec.from_placement(self._rotated(n, homes, "fuzz")),
            budget=budget,
            seed=derive_seed(self.seed, self.name, "fuzz"),
            placements=1,
        )

    def run_pass(self, index: int, measure: Measure) -> None:
        from repro.fuzz import ScheduleFuzzer
        from repro.mc import check_interleavings, exhaust_placements

        # A check runs for seconds, so the reference loop is also timed
        # from inside it, through the checker's progress hook.
        hook = {
            "progress": lambda stats: measure.calibrate(),
            "progress_every": 500,
        }
        pinned = measure.time(
            "pinned",
            lambda: check_interleavings(self.pinned[0], self.placement, **hook),
        )
        algorithm, n, k, _ = self.grid
        grid = measure.time(
            "grid", lambda: exhaust_placements(algorithm, n, k, **hook)
        )

        campaigns = []
        for _ in range(self.CAMPAIGNS):
            started = [0.0]

            def progress(runs: int, budget: int, coverage: object) -> None:
                measure.op(f"fuzz{runs - 1}", perf_counter() - started[0])
                measure.calibrate()
                started[0] = perf_counter()

            fuzzer = ScheduleFuzzer(self.fuzz_spec, progress=progress)
            measure.calibrate()
            started[0] = perf_counter()
            outcome = fuzzer.run()
            campaigns.append({
                "runs": outcome.runs,
                "steps": outcome.steps,
                "states": outcome.states,
                "patterns": outcome.patterns,
                "corpus": outcome.corpus_size,
                "complete": outcome.complete,
                "failures": [failure.to_dict() for failure in outcome.failures],
            })
        measure.outputs.append({
            "index": index,
            "pinned": pinned.to_dict(),
            "grid": [result.to_dict() for result in grid],
            "fuzz": campaigns,
        })

    def check(self, measure: Measure, checks: Checks) -> None:
        first = measure.outputs[0]
        for output in measure.outputs:
            pinned = output["pinned"]
            checks.expect(
                pinned["ok"] and pinned["complete"]
                and pinned["explored"] == self.pinned[3],
                f"pinned check: {pinned['verdict']}, {pinned['explored']} states",
            )
            grid = output["grid"]
            for result in grid:
                checks.expect(
                    result["ok"] and result["complete"],
                    f"grid check {result['placement']}: {result['verdict']}",
                )
            explored = sum(result["explored"] for result in grid)
            checks.expect(
                explored == self.grid[3], f"grid explored {explored} states"
            )
            checks.expect(
                output["pinned"] == first["pinned"] and output["grid"] == first["grid"],
                f"pass {output['index']}: model-checker statistics did not repeat",
            )
            for fuzz in output["fuzz"]:
                checks.expect(
                    not fuzz["failures"] and fuzz["complete"],
                    f"fuzz pass {output['index']} found {len(fuzz['failures'])} violations",
                )
                checks.expect(
                    fuzz == first["fuzz"][0],
                    f"pass {output['index']}: the fuzz campaign did not repeat",
                )

    def _states(self, measure: Measure) -> int:
        first = measure.outputs[0]
        return first["pinned"]["explored"] + sum(
            result["explored"] for result in first["grid"]
        )

    def metrics(self, measure: Measure) -> Dict[str, float]:
        runs = [
            measure.typical(f"fuzz{run}")
            for run in range(measure.outputs[0]["fuzz"][0]["runs"])
        ]
        mc_s = measure.typical("pinned") + measure.typical("grid")
        return {
            "work_per_s": _rate(self._states(measure), mc_s),
            "aux_per_s": _rate(len(runs), sum(runs)),
            "op_p50_ms": 1000.0 * quantile(runs, 0.5),
            "op_tail_ms": 1000.0 * quantile(runs, 0.9),
            "peak_rss_mb": _rss_mb_self(),
        }

    def detail(self, measure: Measure) -> Dict[str, object]:
        values = self.metrics(measure)
        return {
            "mc_states_per_s": values["work_per_s"],
            "mc_states": self._states(measure),
            "mc_pinned_s": summary(measure.scaled("pinned")),
            "mc_grid_s": summary(measure.scaled("grid")),
            "fuzz_runs_per_s": values["aux_per_s"],
            "fuzz_runs": measure.outputs[0]["fuzz"][0]["runs"],
        }


# -- serve-mixed --------------------------------------------------------------


_ANNOUNCE = re.compile(r"http://([0-9.]+):([0-9]+)")


class ServeMixed(Workload):
    """One client, closed loop, against a live ``repro serve`` process.

    Every pass sends the same seeded sequence of operations to a fresh
    server on a fresh copy of the filled store; only the submitted jobs
    get fresh seeds, so each job runs instead of hitting the store.
    Figures take each operation's median latency over the passes and
    the median pass time, scaled like every timing.
    """

    name = "serve-mixed"
    #: Operations per pass: enough that the p99 over one pass's
    #: positions has ten operations beyond it.
    OPS_PER_PASS = 1000
    TINY_OPS_PER_PASS = 100
    #: Seconds between two polls of a submitted job.
    POLL_S = 0.02
    #: Share of each operation in a pass (point lookups by full hash and
    #: by prefix, filtered pages, job submissions polled to completion),
    #: exact, so every seed asks the server for the same amount of work.
    #: Lookups are four in five operations, so the median latency sits
    #: inside their mode rather than on its edge with the slower pages.
    MIX = (("get", 0.40), ("prefix", 0.40), ("query", 0.15), ("submit", 0.05))

    def __init__(self, seed: int, workdir: Path, size: str = "full") -> None:
        super().__init__(seed, workdir, size)
        self.server: Optional[subprocess.Popen] = None
        self.trace_file: Optional[Path] = None
        self.traced = False
        self.dumps: List[Dict[str, object]] = []
        self.server_rss_mb: List[float] = []

    def setup(self) -> None:
        from repro.experiments.sweep import SweepSpec, execute_sweep
        from repro.store import RunStore

        tiny = self.size == "tiny"
        self.fill_spec = SweepSpec(
            algorithms=ALGORITHMS,
            grid=((12, 3),) if tiny else ((32, 4), (48, 6)),
            schedulers=("sync", "random") if tiny else SCHEDULERS,
            trials=1 if tiny else 6,
            base_seed=derive_seed(self.seed, self.name, "fill"),
        )
        self.fill_sizes = sorted({n for n, _ in self.fill_spec.grid})
        self.ops_per_pass = self.TINY_OPS_PER_PASS if tiny else self.OPS_PER_PASS
        self.template = self._fresh_dir("serve-template")
        store = RunStore(self.template)
        execute_sweep(self.fill_spec, processes=1, store=store)
        self.hashes = store.hashes()
        store.close()
        self.start_loop(traced=False)

    # -- server lifecycle --------------------------------------------------

    def start_loop(self, traced: bool) -> None:
        self.traced = traced
        self.dumps = []
        self.server_rss_mb = []
        if self.server is None or traced:  # set-up starts an untraced one
            self._restart()

    def _restart(self) -> None:
        """Stop the running server, then start a fresh one (through the
        tracing launcher when the loop is traced) on a fresh copy of the
        filled store."""
        self._stop_server()
        self.store_root = self._fresh_dir("serve-store")
        shutil.rmtree(self.store_root)
        shutil.copytree(self.template, self.store_root)
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        if self.traced:
            self.trace_file = self.workdir / "server-trace.json"
            command = [
                sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
                "--store", str(self.store_root), "--trace-out", str(self.trace_file),
            ]
        else:
            self.trace_file = None
            command = [
                sys.executable, "-m", "repro", "serve",
                "--store", str(self.store_root), "--port", "0", "--quiet",
            ]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        line = self.server.stdout.readline()
        match = _ANNOUNCE.search(line)
        if match is None:
            self._stop_server()
            raise RuntimeError(f"server did not announce its address: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        status, _ = self._request("GET", "/v1/health")
        if status != 200:
            raise RuntimeError(f"server health check answered {status}")

    def _server_rss(self) -> float:
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop_loop(self, measure: Measure) -> List[Dict[str, object]]:
        self._stop_server()
        measure.add("server_rss_mb", max(self.server_rss_mb))
        return self.dumps

    def _stop_server(self) -> None:
        server = self.server
        if server is None:
            return
        self.server_rss_mb.append(self._server_rss())
        self.server = None
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        if self.trace_file is not None and self.trace_file.is_file():
            self.dumps.append(json.loads(self.trace_file.read_text()))
            self.trace_file.unlink()
        shutil.rmtree(self.store_root, ignore_errors=True)

    def close(self) -> None:
        self._stop_server()

    # -- the loop ----------------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[bytes] = None):
        # One connection per request, as the repo's own ServeClient
        # (urllib) does.  On a kept-alive connection every reply stalls
        # for the 40 ms delayed-ACK timer, because the server writes the
        # headers and the body as two segments.
        headers = {"Connection": "close"}
        if body:
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def _timed(self, measure: Measure, method: str, path: str, body=None):
        start = perf_counter()
        status, payload = self._request(method, path, body)
        measure.op("request", perf_counter() - start)
        return status, payload

    def _wait(self, measure: Measure, job_id: str):
        """Poll one job at a fixed interval until it is done."""
        while True:
            start = perf_counter()
            status, job = self._request("GET", f"/v1/jobs/{job_id}")
            measure.op("poll", perf_counter() - start)
            if status != 200 or job["state"] not in ("queued", "running"):
                return status, job
            time.sleep(self.POLL_S)

    def _submission(self, rng: random.Random):
        from repro.spec import ExperimentSpec, PlacementSpec

        # These three algorithms take about the same time at this size
        # (``unknown`` takes 4x longer), so every job loads the server
        # for about as long.
        return ExperimentSpec(
            algorithm=rng.choice(("known_k_full", "known_n_full", "known_k_logspace")),
            placement=PlacementSpec(
                kind="random", ring_size=64, agent_count=8,
                seed=rng.randrange(1 << 31),
            ),
            scheduler=rng.choice(("sync", "random")),
            scheduler_seed=rng.randrange(1 << 31),
        )

    def run_pass(self, index: int, measure: Measure) -> None:
        if index > 0:
            # Jobs add records, and lookups slow as the store grows, so
            # every pass starts from the same filled store.
            self._restart()
        rng = random.Random(derive_seed(self.seed, self.name))
        job_rng = random.Random(derive_seed(self.seed, self.name, "jobs", index))
        kinds = [
            kind for kind, share in self.MIX
            for _ in range(round(share * self.ops_per_pass))
        ]
        rng.shuffle(kinds)
        answers: List[object] = []
        submitted: List[int] = []
        records = 0

        def operations() -> None:
            nonlocal records
            for kind in kinds:
                measure.calibrate()
                if kind in ("get", "prefix"):
                    content_hash = rng.choice(self.hashes)
                    key = content_hash if kind == "get" else content_hash[:12]
                    status, payload = self._timed(measure, "GET", f"/v1/runs/{key}")
                    answers.append((kind, content_hash, status, payload))
                    records += 1 if status == 200 else 0
                elif kind == "query":
                    # Filtering on a ring size of the fill keeps the jobs'
                    # records out of the page, so the page does not depend
                    # on which jobs have finished.
                    algorithm = rng.choice(ALGORITHMS)
                    scheduler = rng.choice(SCHEDULERS)
                    n = rng.choice(self.fill_sizes)
                    limit = rng.choice((2, 4, 8))
                    offset = rng.randrange(0, 4)
                    path = (
                        f"/v1/runs?algorithm={algorithm}&scheduler={scheduler}"
                        f"&n={n}&limit={limit}&offset={offset}"
                    )
                    status, payload = self._timed(measure, "GET", path)
                    answers.append(
                        (kind, (algorithm, scheduler, n, limit), status, payload)
                    )
                    if status == 200:
                        records += len(payload["runs"])
                else:
                    # The job runs in the server while the loop goes on, so
                    # its writes contend with the reads that follow.
                    spec = self._submission(job_rng)
                    body = json.dumps(
                        {"kind": "experiment", "spec": spec.to_dict()}
                    ).encode()
                    status, job = self._timed(measure, "POST", "/v1/jobs", body)
                    submitted.append(len(answers))
                    answers.append((kind, spec, status, job))

        measure.time("pass", operations)
        measure.add("records", records)
        # Outside the timed operations: wait for the pass's jobs and keep
        # their results for the checks.
        for position in submitted:
            kind, spec, status, job = answers[position]
            if status == 202:
                status, job = self._wait(measure, job["id"])
                if status == 200 and job["finished_at"] is not None:
                    measure.op("job", job["finished_at"] - job["submitted_at"])
            # Job ids and timestamps differ run to run; keep what must not.
            answers[position] = (
                kind, spec, status,
                {"state": job.get("state"), "result": job.get("result")},
            )
        measure.outputs.append({"index": index, "answers": answers})

    def check(self, measure: Measure, checks: Checks) -> None:
        for output in measure.outputs:
            for kind, key, status, payload in output["answers"]:
                ok = 200 <= status < 300
                if ok and kind in ("get", "prefix"):
                    ok = payload.get("content_hash") == key
                elif ok and kind == "query":
                    algorithm, scheduler, n, limit = key
                    runs = payload["runs"]
                    ok = len(runs) <= limit and all(
                        run["spec"]["algorithm"] == algorithm
                        and run["spec"]["scheduler"]["spec"] == scheduler
                        and run["result"]["ring_size"] == n
                        for run in runs
                    )
                elif ok and kind == "submit":
                    result = payload.get("result") or {}
                    ok = (
                        payload.get("state") == "completed"
                        and result.get("content_hash") == key.content_hash()
                        and bool(result.get("row", {}).get("uniform"))
                    )
                checks.expect(ok, f"{kind} {key}: HTTP {status} {str(payload)[:200]}")

    def _latencies(self, measure: Measure) -> List[float]:
        """Each operation's median scaled latency over the passes."""
        requests = measure.scaled("request")
        return [
            quantile(requests[position::self.ops_per_pass], 0.5)
            for position in range(self.ops_per_pass)
        ]

    def metrics(self, measure: Measure) -> Dict[str, float]:
        ops = self._latencies(measure)
        typical = measure.typical("pass")
        records = measure.get("records") / len(measure.ops["pass"])
        return {
            "work_per_s": _rate(self.ops_per_pass, typical),
            "aux_per_s": _rate(records, typical),
            "op_p50_ms": 1000.0 * quantile(ops, 0.5),
            "op_tail_ms": 1000.0 * quantile(ops, 0.99),
            "peak_rss_mb": measure.get("server_rss_mb"),
        }

    def detail(self, measure: Measure) -> Dict[str, object]:
        requests = measure.ops["request"]
        return {
            "req_per_s": _rate(len(requests), sum(measure.ops["pass"])),
            "req_p50_ms": 1000.0 * quantile(requests, 0.5),
            "req_p99_ms": 1000.0 * quantile(requests, 0.99),
            "requests": len(requests),
            "polls": len(measure.ops.get("poll", [])),
            "job_s": summary(measure.ops.get("job", [])),
            "records": len(self.hashes),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (SweepWide, SweepDeep, Verify, ServeMixed)
}
