"""Run one workload under several seeds and report the spread per metric.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload verify --runs 10 --seconds 10

Runs the timed benchmark (``--trace 0``) once per seed (1..runs, or
``--seeds``) and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, next to the bound ``BENCHMARK.json`` fixes, with
the host fingerprint of the first run.  ``--out FILE`` also writes the
raw result lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = (
        [int(seed) for seed in args.seeds.split(",")]
        if args.seeds else list(range(1, args.runs + 1))
    )
    results, host = [], None
    for seed in seeds:
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        lines = subprocess.run(
            command, cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip().splitlines()
        result = json.loads(lines[-1])
        host = host or json.loads(lines[-2])["perfbench"]["host"]
        results.append(result)
        values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    print(f"host {json.dumps(host, sort_keys=True)}")
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:28s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {share:7.2%}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
