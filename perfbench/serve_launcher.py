"""Start ``repro serve`` with the benchmark's tracing wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py --store DIR --trace-out FILE

Behaves like ``python -m repro serve --store DIR --port 0 --quiet``
(announces its address on the first line of standard output and stops
on SIGINT), then writes everything the tracer recorded to ``FILE`` as
JSON before exiting.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from tracing import Tracer, install, uninstall

    from repro.serve import serve_forever

    tracer = Tracer()
    install(tracer)
    try:
        code = serve_forever(args.store, port=0, quiet=True)
    finally:
        uninstall()
        Path(args.trace_out).write_text(json.dumps(tracer.to_dict()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
