"""Byte-identity gate for the canonical state encodings.

``tests/data/encoding_golden.json`` pins what the two encodings of
:mod:`repro.ring.configuration` feed into: the model checker's
``MCResult.to_dict()`` (visited-state counts and the hex canonical keys
of every terminal state) and the fuzzer's coverage keys.  Any change to
``packed_layout`` or ``canonical`` that moves a byte shows up here as a
changed terminal key or coverage digest.

The entries:

* ``mc`` — full ``to_dict()`` records of the benchmark's pinned check
  (``unknown`` n=10 homes (0,3,7)), of the ``known_n_full`` n=8 k=3
  placement grid, and of ``unknown`` n=8 homes (0,3) under
  ``LinkSpec(delay=1)``;
* ``ci_terminal_keys`` — per placement, the terminal keys of the three
  grid cells CI's verdict-parity step checks (the step reads them from
  this file);
* ``fuzz`` — sha256 of ``CoverageMap.export_keys()`` after a reliable
  campaign shaped like the benchmark's (``known_k_logspace`` n=32) and
  after a faulty one.

Regenerate only for a deliberate encoding change (which must also bump
``PACKED_ENCODING_VERSION``)::

    PYTHONPATH=src python tests/test_encoding_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.fuzz import FuzzSpec, ScheduleFuzzer
from repro.mc import check_interleavings, exhaust_placements
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.spec import PlacementSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "encoding_golden.json"

#: The grid cells of CI's verdict-parity step, named as its artifacts are.
CI_CELLS = (("known_k_full", 6, 2), ("known_k_logspace", 6, 3), ("unknown", 8, 2))


def _coverage_digest(spec: FuzzSpec) -> str:
    fuzzer = ScheduleFuzzer(spec)
    fuzzer.run()
    keys = json.dumps(fuzzer.coverage.export_keys()).encode("ascii")
    return hashlib.sha256(keys).hexdigest()


def _pinned() -> dict:
    return check_interleavings("unknown", Placement(10, homes=(0, 3, 7))).to_dict()


def _grid() -> list:
    return [result.to_dict() for result in exhaust_placements("known_n_full", 8, 3)]


def _delayed() -> dict:
    return check_interleavings(
        "unknown", Placement(8, homes=(0, 3)), links=LinkSpec(delay=1)
    ).to_dict()


def _ci_terminal_keys() -> dict:
    return {
        f"{algorithm}-{n}x{k}": [
            result.terminal_keys for result in exhaust_placements(algorithm, n, k)
        ]
        for algorithm, n, k in CI_CELLS
    }


def _fuzz_reliable() -> str:
    placement = Placement(32, homes=(0, 5, 13, 22))
    return _coverage_digest(
        FuzzSpec(
            algorithm="known_k_logspace",
            placement=PlacementSpec.from_placement(placement),
            budget=20,
            seed=1,
            placements=1,
        )
    )


def _fuzz_faulty() -> str:
    placement = Placement(16, homes=(0, 5, 9))
    return _coverage_digest(
        FuzzSpec(
            algorithm="unknown",
            placement=PlacementSpec.from_placement(placement),
            budget=30,
            seed=2,
            placements=1,
            links=LinkSpec(delay=1, loss=1),
        )
    )


#: (section, name) -> the computation that produced the golden value.
ENTRIES = {
    ("mc", "unknown-10-0,3,7"): _pinned,
    ("mc", "known_n_full-8x3"): _grid,
    ("mc", "unknown-8-0,3-delay1"): _delayed,
    ("ci_terminal_keys", None): _ci_terminal_keys,
    ("fuzz", "known_k_logspace-32"): _fuzz_reliable,
    ("fuzz", "unknown-16-faulty"): _fuzz_faulty,
}


def _normalise(value):
    """JSON round-trip: tuples become lists, as in the stored file."""
    return json.loads(json.dumps(value))


def build_golden() -> dict:
    golden: dict = {}
    for (section, name), compute in ENTRIES.items():
        value = _normalise(compute())
        if name is None:
            golden[section] = value
        else:
            golden.setdefault(section, {})[name] = value
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _check(golden: dict, section: str, name) -> None:
    expected = golden[section] if name is None else golden[section][name]
    assert _normalise(ENTRIES[(section, name)]()) == expected


def test_golden_covers_every_entry(golden):
    stored = {
        (section, name)
        for section, value in golden.items()
        for name in (value if section != "ci_terminal_keys" else [None])
    }
    assert stored == set(ENTRIES)


@pytest.mark.parametrize(
    "section,name",
    [
        ("mc", "known_n_full-8x3"),
        ("mc", "unknown-8-0,3-delay1"),
        ("ci_terminal_keys", None),
    ],
)
def test_small_checks_match_golden(golden, section, name):
    _check(golden, section, name)


@pytest.mark.mc
@pytest.mark.parametrize(
    "section,name",
    [
        ("mc", "unknown-10-0,3,7"),
        ("fuzz", "known_k_logspace-32"),
        ("fuzz", "unknown-16-faulty"),
    ],
)
def test_benchmark_sized_runs_match_golden(golden, section, name):
    _check(golden, section, name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_encoding_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
