"""Model-checker throughput: POR reduction and the verified ceiling.

Two measurements on a pinned n=10, k=3 cell (the largest instance the
verification ladder reports as exhaustively verified):

* serial full expansion vs sleep-set POR — the asserted >=2x win: POR
  executes fewer than half the transitions while reaching the identical
  state set, so states/second of *verification* roughly doubles;
* the memo footprint of the packed encoding at that size.
"""

from __future__ import annotations

import time

from repro.mc import check_interleavings
from repro.ring.placement import Placement

from benchmarks.conftest import report_lines

#: The pinned flagship cell: the largest (n, k) the ladder verifies
#: exhaustively.  8009 canonical states under either mode.
_ALGORITHM = "unknown"
_PLACEMENT = Placement(ring_size=10, homes=(0, 3, 7))
_REQUIRED_IMPROVEMENT = 2.0


def test_por_halves_verification_work(benchmark):
    def run_both():
        start = time.perf_counter()
        full = check_interleavings(
            _ALGORITHM, _PLACEMENT, por=False, stop_at_first=False
        )
        full_seconds = time.perf_counter() - start
        start = time.perf_counter()
        reduced = check_interleavings(_ALGORITHM, _PLACEMENT, stop_at_first=False)
        por_seconds = time.perf_counter() - start
        return full, reduced, full_seconds, por_seconds

    full, reduced, full_seconds, por_seconds = benchmark(run_both)

    # Soundness before speed: identical verdict and state coverage.
    assert full.ok and reduced.ok
    assert reduced.explored == full.explored
    assert reduced.terminal_keys == full.terminal_keys

    reduction = full.transitions / reduced.transitions
    speedup = full_seconds / por_seconds
    assert reduction >= _REQUIRED_IMPROVEMENT, (
        f"POR reduction regressed: {reduction:.2f}x < "
        f"{_REQUIRED_IMPROVEMENT}x on the pinned cell"
    )

    report_lines(
        "Model checker - sleep-set POR (pinned n=10 k=3 cell)",
        [
            f"{reduced.explored} states: full {full.transitions} transitions "
            f"({full_seconds:.2f}s), POR {reduced.transitions} "
            f"({por_seconds:.2f}s)",
            f"transition reduction {reduction:.2f}x "
            f"(required >= {_REQUIRED_IMPROVEMENT}x), "
            f"wall-clock speedup {speedup:.2f}x",
        ],
    )


def test_max_verified_instance_and_memo_footprint(benchmark):
    def verify():
        start = time.perf_counter()
        result = check_interleavings(_ALGORITHM, _PLACEMENT)
        return result, time.perf_counter() - start

    result, seconds = benchmark(verify)
    assert result.ok and result.complete
    assert result.memo_bytes > 0

    report_lines(
        "Model checker - max verified instance",
        [
            f"{_ALGORITHM} n={_PLACEMENT.ring_size} k={_PLACEMENT.agent_count} "
            f"homes={_PLACEMENT.homes}: {result.explored} states, "
            f"{result.transitions} transitions, {result.terminals} terminals "
            f"in {seconds:.2f}s ({result.explored / seconds:,.0f} states/s), "
            f"memo {result.memo_bytes:,} bytes",
        ],
    )
