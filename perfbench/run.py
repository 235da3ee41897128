"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run: it measures set-up (from the start of
a process to the end of the workload's set-up, in this process and in
``SETUP_REPEATS`` fresh ones), runs the closed loop for ``--seconds``,
checks every output and prints the end-to-end metrics.  Every timing
is scaled to the nominal host by a reference loop timed alongside it
(``workloads.Measure``), so the host's drifting speed drops out of the
figures; the detail line keeps the reference times.  ``--trace 1``
is the traced run: it runs the loop once untraced and once with the
wrappers of ``tracing.py`` installed, checks that both produced
identical outputs, and prints the per-layer metrics plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it (``{"perfbench": ...}``) records the host, the seed, the sample
counts and quartiles behind each metric, and the metrics under the
names the README uses.  Everything the run writes lives in a temporary
directory under ``.perfbench_tmp/`` in the checkout and is removed at
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, every workload reports all of them (README.md
#: maps each one to what it measures on each workload).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "aux_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Fresh processes that repeat the set-up after this process's own;
#: ``setup_s`` is the median over all of them.  One sample alone spread
#: by 20-34% (quartile distance over median) across ten seeds.
SETUP_REPEATS = 2


def host_fingerprint() -> Dict[str, object]:
    """Python, numpy, CPU count and git sha of the measuring host."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _process_age_s() -> float:
    """Seconds since this process was started (Linux ``/proc``)."""
    with open("/proc/self/stat") as stat:
        # Fields after the parenthesised command name; starttime is the
        # 22nd field overall, in clock ticks since boot.
        fields = stat.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _setup_s(args: argparse.Namespace) -> float:
    """``_process_age_s`` at the end of set-up, in seconds of the nominal
    host: scaled like every timing, by the reference loop timed before
    set-up (``main``) and now."""
    from workloads import REFERENCE_S, reference_s

    age = _process_age_s() - args.reference_spent
    return age * REFERENCE_S / ((args.reference_s + reference_s()) / 2)


def _repeat_setup(args: argparse.Namespace) -> float:
    """``_setup_s`` in a fresh process."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--size", args.size, "--setup-only",
        ],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up repeat failed: {done.stderr[-500:]}")
    return float(done.stdout.split()[-1])


def _loop(workload, seconds: float):
    """Run passes for about ``seconds`` (at least one pass).

    A pass starts only if, at the mean pass time so far, at least half
    of it fits before the deadline, so a loop of long passes ends near
    ``seconds`` rather than up to a whole pass after it.
    """
    from workloads import Measure

    measure = Measure()
    start = perf_counter()
    measure.calibrate(force=True)
    index = 0
    while True:
        workload.run_pass(index, measure)
        index += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            break
    measure.calibrate(force=True)
    measure.add("wall_s", perf_counter() - start)
    measure.add("passes", index)
    return measure


def _timed(args, workload, checks) -> Dict[str, object]:
    from workloads import summary

    workload.setup()
    setups = [_setup_s(args)]
    setups += [_repeat_setup(args) for _ in range(SETUP_REPEATS)]
    workload.start_loop(traced=False)
    measure = _loop(workload, args.seconds)
    workload.stop_loop(measure)
    workload.check(measure, checks)
    values = workload.metrics(measure)
    values["setup_s"] = statistics.median(setups)
    detail = {
        "setup_s": setups,
        "passes": measure.get("passes"),
        "wall_s": measure.get("wall_s"),
        "reference_s": summary(measure.references),
        "metrics": workload.detail(measure),
    }
    return {"values": values, "detail": detail}


def _traced(args, workload, checks) -> Dict[str, object]:
    from tracing import Tracer, install, layer_metrics, uninstall

    workload.setup()
    workload.start_loop(traced=False)
    plain = _loop(workload, args.seconds)
    workload.stop_loop(plain)
    tracer = Tracer()
    install(tracer)
    try:
        workload.start_loop(traced=True)
        traced = _loop(workload, args.seconds)
        server_dumps = workload.stop_loop(traced)
    finally:
        uninstall()
    dumps = [tracer.to_dict()] + server_dumps
    values = layer_metrics(dumps)

    # Tracing must be inert: pass i computed the same outputs either way.
    common = min(len(plain.outputs), len(traced.outputs))
    for off, on in zip(plain.outputs[:common], traced.outputs[:common]):
        checks.expect(off == on, f"pass {off['index']}: outputs differ with tracing on")
    workload.check(plain, checks)
    workload.check(traced, checks)

    plain_values = workload.metrics(plain)
    traced_values = workload.metrics(traced)
    if plain_values["work_per_s"]:
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - traced_values["work_per_s"] / plain_values["work_per_s"]
        )
    requests = traced.ops.get("request", []) + traced.ops.get("poll", [])
    if requests:
        handled = sum(
            value for name, value in values.items()
            if name.startswith("serve.handle_s.")
        )
        values["serve.http_overhead_ms"] = (
            1000.0 * (sum(requests) - handled) / len(requests)
        )
        jobs = traced.ops.get("job", [])
        values["serve.jobs"] = len(jobs)
        values["serve.job_s"] = sum(jobs) / len(jobs) if jobs else 0.0
    detail = {
        "passes": {"untraced": plain.get("passes"), "traced": traced.get("passes")},
        "compared_passes": common,
        "end_to_end": {"untraced": plain_values, "traced": traced_values},
        "metrics": workload.detail(traced),
    }
    return {"values": values, "detail": detail}


def main(argv: List[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = _parse(argv)
    from tracing import PER_LAYER
    from workloads import WORKLOADS, Checks, reference_s

    # The host's speed as set-up begins; set-up time leaves this out.
    started = perf_counter()
    args.reference_s = reference_s()
    args.reference_spent = perf_counter() - started

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    workload = WORKLOADS[args.workload](args.seed, workdir, args.size)
    try:
        if args.setup_only:
            workload.setup()
            print(_setup_s(args))
            return 0
        checks = Checks()
        outcome = (_traced if args.trace else _timed)(args, workload, checks)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still owns a directory in it
    values = outcome["values"]
    units = PER_LAYER if args.trace else END_TO_END
    detail = dict(
        outcome["detail"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        host=host_fingerprint(),
        error_rate=checks.failed / checks.attempted if checks.attempted else 0.0,
        failures=checks.messages,
    )
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
