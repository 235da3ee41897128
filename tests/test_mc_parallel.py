"""Placement pool and the DFS checkpoint journal: parity, resume, SIGKILL.

``check_interleavings(store_root=...)`` advertises two strong
guarantees, each pinned here:

* **Spill parity** — a journaled search returns exactly the unspilled
  search's :meth:`MCResult.to_dict` (verdict, every counter, the
  terminal-state key set and the counterexamples).
* **Resumability** — a spilled check killed at an arbitrary point (a
  torn journal tail, or a real ``SIGKILL`` of the CLI process mid-run)
  resumes from the last committed checkpoint and finishes with the
  *same* result as an uninterrupted run.

The placement pool must return the serial grid's results, in order.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.mc import (
    check_hash,
    check_interleavings,
    check_spec,
    exhaust_placements,
    replay_counterexample,
)
from repro.mc.frontier import FrontierSpill
from repro.mc.properties import default_safety_properties, resolve_terminal
from repro.mc.selftest import wake_race_agents
from repro.ring.placement import Placement

PLACEMENT = Placement(ring_size=8, homes=(0, 3))
BUG_PLACEMENT = Placement(ring_size=8, homes=(0, 1, 3))


def _spill_for(store: Path, algorithm: str, placement: Placement) -> FrontierSpill:
    n, k = placement.ring_size, placement.agent_count
    spec = check_spec(
        algorithm,
        placement,
        por=True,
        depth_limit=None,
        max_states=None,
        stop_at_first=True,
        safety_props=tuple(default_safety_properties(n, k)),
        terminal_props=(resolve_terminal(algorithm, None, None),),
    )
    return FrontierSpill(str(store), spec)


def _spilled_and_unspilled(store: Path, algorithm: str, placement, **options):
    """Run the same check with and without a journal; both results."""
    spilled = check_interleavings(
        algorithm, placement, store_root=str(store), **options
    )
    return spilled, check_interleavings(algorithm, placement, **options)


# ----------------------------------------------------------------------
# Parity with the unspilled search
# ----------------------------------------------------------------------


def test_spilled_dfs_matches_unspilled(tmp_path):
    spilled, plain = _spilled_and_unspilled(tmp_path, "unknown", PLACEMENT)
    assert spilled.ok and plain.ok
    assert spilled.to_dict() == plain.to_dict()


def test_spilled_no_por_matches_por_observables(tmp_path):
    placement = Placement(6, homes=(0, 2))
    reduced, plain = _spilled_and_unspilled(
        tmp_path, "known_k_full", placement
    )
    full, plain_full = _spilled_and_unspilled(
        tmp_path, "known_k_full", placement, por=False
    )
    assert reduced.to_dict() == plain.to_dict()
    assert full.to_dict() == plain_full.to_dict()
    assert reduced.explored == full.explored
    assert reduced.terminal_keys == full.terminal_keys
    assert reduced.transitions < full.transitions


def test_spilled_respects_max_states(tmp_path):
    result, plain = _spilled_and_unspilled(
        tmp_path, "unknown", PLACEMENT, max_states=50
    )
    assert not result.complete
    assert result.explored <= 50 + 1
    assert result.to_dict() == plain.to_dict()


def test_wake_race_found_by_spilled_dfs_and_replays(tmp_path):
    result, plain = _spilled_and_unspilled(
        tmp_path,
        "wake_race",
        BUG_PLACEMENT,
        require_halted=False,
        require_suspended=True,
    )
    assert result.to_dict() == plain.to_dict()
    assert result.violations
    violation = result.violations[0]
    assert violation.kind == "terminal"
    _, messages = replay_counterexample(
        violation,
        factory=lambda: wake_race_agents(3),
        require_halted=True,
        require_suspended=False,
    )
    assert messages  # the schedule replays deterministically to a report


def test_spilled_dfs_runs_agent_factory_in_process(tmp_path):
    # Factories are in-process closures; the journaled search takes one
    # directly and agrees with the unspilled search driven by it.
    options = dict(
        factory=lambda: wake_race_agents(3),
        require_halted=False,
        require_suspended=True,
        stop_at_first=False,
    )
    label = "wake_race(known_k_logspace)"
    spilled, plain = _spilled_and_unspilled(
        tmp_path, label, BUG_PLACEMENT, **options
    )
    assert spilled.verdict == plain.verdict == "violation"
    assert spilled.to_dict() == plain.to_dict()


# ----------------------------------------------------------------------
# Placement pool (grid fan-out)
# ----------------------------------------------------------------------


def test_placement_pool_matches_serial_grid():
    serial = exhaust_placements("known_k_logspace", 6, 2)
    pooled = exhaust_placements("known_k_logspace", 6, 2, jobs=2)
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]


def test_placement_pool_rejects_factory():
    with pytest.raises(ValueError):
        exhaust_placements(
            "unknown", 8, 2, jobs=2, factory=lambda: wake_race_agents(2)
        )


# ----------------------------------------------------------------------
# Disk spill: journal, resume, torn tails
# ----------------------------------------------------------------------


def test_spill_writes_journal_and_result(tmp_path):
    result = check_interleavings(
        "unknown", PLACEMENT, store_root=str(tmp_path)
    )
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    assert (directory / "meta.json").exists()
    assert (directory / "journal.jsonl").exists()
    stored = json.loads((directory / "result.json").read_text())
    assert stored == result.to_dict()
    meta = json.loads((directory / "meta.json").read_text())
    assert check_hash(meta["spec"]) == spill.hash


def test_check_hash_carries_the_journal_format(tmp_path):
    # A journal written in another layout (the breadth-first wave
    # journal had no "journal" field) must land in another directory,
    # so --resume can never read it as a DFS checkpoint.
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    assert spill.spec["journal"] == "dfs-checkpoint-1"
    assert spill.hash == (
        "030c979e6b481058805eb2131e21cf4e87b15183a2e242bc66d1870d3cab06d2"
    )
    older = {key: value for key, value in spill.spec.items() if key != "journal"}
    assert check_hash(older) == (
        "3fea091b23ed92737ee40db22b7b8eb03415f86066b0f7c6a9a40a92220add3e"
    )


def test_resume_of_completed_check_short_circuits(tmp_path):
    first = check_interleavings("unknown", PLACEMENT, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    journal = tmp_path / "mc" / spill.hash / "journal.jsonl"
    before = journal.stat().st_size
    again = check_interleavings(
        "unknown", PLACEMENT, store_root=str(tmp_path), resume=True
    )
    assert again.to_dict() == first.to_dict()
    assert journal.stat().st_size == before  # nothing re-explored


def test_restart_without_resume_wipes_and_reruns(tmp_path):
    first = check_interleavings("unknown", PLACEMENT, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    marker = tmp_path / "mc" / spill.hash / "stale-file"
    marker.write_text("stale")
    second = check_interleavings("unknown", PLACEMENT, store_root=str(tmp_path))
    assert second.to_dict() == first.to_dict()
    assert not marker.exists()  # start_fresh wiped the directory


def _truncate_journal(journal: Path, keep_commits: int, garbage: str) -> None:
    """Keep the journal through its Nth commit marker, then a torn tail."""
    kept = []
    commits = 0
    for line in journal.read_text(encoding="utf-8").splitlines(keepends=True):
        kept.append(line)
        if '"t":"c"' in line:
            commits += 1
            if commits == keep_commits:
                break
    assert commits == keep_commits, "journal shorter than expected"
    journal.write_text("".join(kept) + garbage, encoding="utf-8")


@pytest.mark.parametrize(
    "garbage",
    ['{"t":"v","k":"ab', '{"t":"i",broken json}\n', ""],
    ids=["mid-line-kill", "corrupt-line", "clean-commit-boundary"],
)
def test_torn_journal_resumes_to_identical_result(tmp_path, garbage):
    clean = check_interleavings("unknown", PLACEMENT, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    _truncate_journal(directory / "journal.jsonl", keep_commits=2, garbage=garbage)
    (directory / "result.json").unlink()
    resumed = check_interleavings(
        "unknown", PLACEMENT, store_root=str(tmp_path), resume=True
    )
    assert resumed.to_dict() == clean.to_dict()
    # The torn tail was cut before the resumed search appended to the
    # journal, so a second crash could resume from the newer blocks.
    lines = (directory / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["t"] for line in lines].count("c") == 3


def test_torn_journal_resumes_through_cli(tmp_path, capsys):
    # The check hash is independent of the entry point: a journal the
    # library spilled resumes under `repro mc --store --resume`.
    from repro.cli import main

    clean = check_interleavings("unknown", PLACEMENT, store_root=str(tmp_path))
    spill = _spill_for(tmp_path, "unknown", PLACEMENT)
    directory = tmp_path / "mc" / spill.hash
    _truncate_journal(directory / "journal.jsonl", keep_commits=1, garbage="")
    (directory / "result.json").unlink()
    code = main(
        ["mc", "--algorithm", "unknown", "--n", "8", "--distances", "3,5",
         "--store", str(tmp_path), "--resume", "--json"]
    )
    assert code == 0
    cell = json.loads(capsys.readouterr().out)["results"][0]
    assert cell == clean.to_dict()
    assert (directory / "result.json").exists()


def test_resumed_violation_is_not_reexplored(tmp_path):
    found = check_interleavings(
        "wake_race",
        BUG_PLACEMENT,
        require_halted=False,
        require_suspended=True,
        store_root=str(tmp_path),
    )
    assert found.violations
    again = check_interleavings(
        "wake_race",
        BUG_PLACEMENT,
        require_halted=False,
        require_suspended=True,
        store_root=str(tmp_path),
        resume=True,
    )
    assert again.to_dict() == found.to_dict()


# ----------------------------------------------------------------------
# The acceptance test: SIGKILL the CLI mid-check, resume, same answer
# ----------------------------------------------------------------------

_KILL_ARGS = [
    "mc",
    "--algorithm",
    "unknown",
    "--n",
    "10",
    "--distances",
    "3,4,3",
    "--json",
]


def _mc_cli(store: Path, *extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *_KILL_ARGS, "--store", str(store), *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_sigkill_mid_check_resumes_to_identical_verdict(tmp_path):
    store = tmp_path / "store"
    spill = _spill_for(
        tmp_path, "unknown", Placement(10, homes=(0, 3, 7))
    )  # same spec hashing path; directory comes from the CLI run below

    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *_KILL_ARGS, "--store", str(store)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    journal = store / "mc" / spill.hash / "journal.jsonl"
    try:
        # Wait until real exploration progress is journaled, then kill
        # without any chance to clean up.
        deadline = time.time() + 120
        committed = 0
        while time.time() < deadline:
            if process.poll() is not None:
                pytest.fail("check finished before it could be killed")
            if journal.exists():
                committed = journal.read_text(encoding="utf-8").count('"t":"c"')
                if committed >= 5:
                    break
            time.sleep(0.02)
        assert committed >= 5, "no committed checkpoints before the deadline"
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.wait(timeout=60)
    assert process.returncode == -signal.SIGKILL
    assert not (store / "mc" / spill.hash / "result.json").exists()

    resumed = _mc_cli(store, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    document = json.loads(resumed.stdout)

    clean = check_interleavings("unknown", Placement(10, homes=(0, 3, 7)))
    assert document["ok"] is True
    assert document["results"][0] == clean.to_dict()
