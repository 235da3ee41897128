"""Disk-spilled, resumable checkpoints of the model checker's DFS.

A long exhaustive check is a computation worth protecting: hours of
exploration die with the process on the first OOM kill or pre-emption.
This module spills the depth-first search of
:func:`~repro.mc.checker.check_interleavings` — its visited-key memo
and its open frontier, the DFS stack — to ``<store>/mc/<check-hash>/``,
keyed like the RunStore by a content hash of the *check spec*
(algorithm, placement, POR mode, limits, terminal requirements,
packed-encoding version, journal format), so a killed ``repro mc
--store ... --resume`` continues from the last committed checkpoint and
finishes with the same verdict and cumulative stats as an uninterrupted
run (pinned by the kill-resume test).

Layout
------

``meta.json``
    The check spec and its hash, written once at fresh start.
``journal.jsonl``
    Append-only checkpoint journal.  Every
    :data:`~repro.mc.checker.CHECKPOINT_EVERY` transitions the search
    appends a *block*: visited-memo deltas since the previous block
    (``{"t":"v"}``; a reopened state is written again, last write
    wins), new terminal-state keys (``{"t":"tk"}``), new violations
    (``{"t":"x"}``), the whole stack (``{"t":"s"}``: the top frame's
    schedule once, plus each frame's remaining choices and sleep set)
    and finally one commit marker (``{"t":"c"}``) carrying the
    cumulative :class:`~repro.mc.state.SearchStats`.  The file is
    flushed and fsynced once per block, after the commit marker.
``result.json``
    The finished :meth:`~repro.mc.checker.MCResult.to_dict`, written
    atomically (tmp + rename) when the check completes; a resume of a
    completed check short-circuits to it.

Torn-tail safety mirrors :mod:`repro.store.jsonl`: replay buffers lines
and applies a block only when its commit marker parses — a SIGKILL
mid-block (or mid-line) loses at most the uncommitted block, never the
journal's integrity.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.mc.state import SearchStats
from repro.ring.configuration import PACKED_ENCODING_VERSION
from repro.ring.placement import Placement

__all__ = [
    "FrontierSpill",
    "JOURNAL_FORMAT",
    "ResumeState",
    "check_spec",
    "check_hash",
]

#: Journal layout tag baked into every check spec.  A journal written
#: in another layout (the retired breadth-first wave journal had none)
#: hashes to a different directory and can never be resumed as a DFS
#: checkpoint.
JOURNAL_FORMAT = "dfs-checkpoint-1"


@dataclass
class ResumeState:
    """The DFS state at the last committed checkpoint.

    ``schedule`` is the top frame's activation prefix; frame ``i`` of
    the stack sits at ``schedule[:i]``.  ``choices`` and ``slept`` hold
    each frame's untried choices (in pop order) and sleep set;
    ``violations`` are :meth:`~repro.mc.checker.Counterexample.to_dict`
    entries.
    """

    visited: Dict[bytes, frozenset]
    schedule: Tuple[int, ...]
    choices: List[List[int]]
    slept: List[List[int]]
    stats: SearchStats
    violations: List[dict] = field(default_factory=list)
    terminal_keys: List[str] = field(default_factory=list)


def check_spec(
    algorithm: str,
    placement: Placement,
    *,
    por: bool,
    depth_limit: Optional[int],
    max_states: Optional[int],
    stop_at_first: bool,
    safety_props: tuple,
    terminal_props: tuple,
    links: "Optional[object]" = None,
) -> dict:
    """The canonical, JSON-stable description of one check.

    Everything that changes the *meaning* of the exploration is in here
    (including the packed-encoding version and the journal format — a
    format bump must never resume an old spill); runtime hooks like
    ``progress`` are not.  ``links`` (a
    :class:`~repro.ring.faults.LinkSpec`, serialised) is emitted only
    when active.
    """

    def props(sequence: tuple) -> list:
        described = []
        for prop in sequence:
            params = {
                name: value
                for name, value in sorted(vars(prop).items())
                if isinstance(value, (bool, int, float, str, type(None)))
            }
            described.append([prop.name, params])
        return described

    spec = {
        "encoding": PACKED_ENCODING_VERSION,
        "journal": JOURNAL_FORMAT,
        "algorithm": algorithm,
        "ring_size": placement.ring_size,
        "homes": list(placement.homes),
        "por": por,
        "depth_limit": depth_limit,
        "max_states": max_states,
        "stop_at_first": stop_at_first,
        "safety": props(safety_props),
        "terminal": props(terminal_props),
    }
    if links is not None and getattr(links, "active", False):
        spec["links"] = links.to_dict()
    return spec


def check_hash(spec: dict) -> str:
    """SHA-256 of the canonical JSON form of ``spec``."""
    payload = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stats_to_json(stats: SearchStats) -> dict:
    return {
        "explored": stats.explored,
        "transitions": stats.transitions,
        "deduped": stats.deduped,
        "terminals": stats.terminals,
        "max_depth": stats.max_depth,
        "truncated": stats.truncated,
        "por_skipped": stats.por_skipped,
    }


def _stats_from_json(record: dict) -> SearchStats:
    return SearchStats(
        explored=record["explored"],
        transitions=record["transitions"],
        deduped=record["deduped"],
        terminals=record["terminals"],
        max_depth=record["max_depth"],
        truncated=record["truncated"],
        por_skipped=record["por_skipped"],
    )


def _line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


class FrontierSpill:
    """Journal-backed persistence for one check's DFS stack and memo."""

    def __init__(self, store_root: str, spec: dict) -> None:
        self.spec = spec
        self.hash = check_hash(spec)
        self.directory = Path(store_root) / "mc" / self.hash
        self._journal = None

    # -- lifecycle -----------------------------------------------------

    def load_result(self) -> Optional[dict]:
        """The finished result dict, if this check already completed."""
        path = self.directory / "result.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None

    def resume_state(self) -> Optional[ResumeState]:
        """Replay the journal up to its last committed checkpoint.

        Returns ``None`` when there is nothing committed to resume from
        (missing or fully torn journal) — the caller then starts fresh.
        Uncommitted trailing bytes (a block interrupted mid-append) are
        cut off the file, so the blocks the resumed search appends stay
        readable.
        """
        path = self.directory / "journal.jsonl"
        if not path.exists():
            return None
        state: Optional[ResumeState] = None
        offset = committed = 0
        visited: Dict[bytes, frozenset] = {}
        violations: List[dict] = []
        terminal_keys: List[str] = []
        block_visited: List[Tuple[bytes, frozenset]] = []
        block_violations: List[dict] = []
        block_terminal: List[str] = []
        block_stack: Optional[dict] = None
        with path.open("rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # torn tail: mid-line kill
                try:
                    record = json.loads(line)
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break
                offset += len(line)
                kind = record.get("t")
                if kind == "v":
                    block_visited.append(
                        (bytes.fromhex(record["k"]), frozenset(record["s"]))
                    )
                elif kind == "s":
                    block_stack = record
                elif kind == "x":
                    block_violations.append(record)
                elif kind == "tk":
                    block_terminal.append(record["k"])
                elif kind == "c" and block_stack is not None:
                    for key, slots in block_visited:
                        visited[key] = slots
                    violations.extend(block_violations)
                    terminal_keys.extend(block_terminal)
                    state = ResumeState(
                        visited=visited,
                        schedule=tuple(block_stack["sch"]),
                        choices=[frame[0] for frame in block_stack["f"]],
                        slept=[frame[1] for frame in block_stack["f"]],
                        stats=_stats_from_json(record["stats"]),
                        violations=violations,
                        terminal_keys=terminal_keys,
                    )
                    block_visited = []
                    block_violations = []
                    block_terminal = []
                    block_stack = None
                    committed = offset
        if state is not None:
            os.truncate(path, committed)
        return state

    def start_fresh(self) -> None:
        """Wipe any previous spill for this spec, write ``meta.json`` and
        an empty journal."""
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta = {"version": 2, "hash": self.hash, "spec": self.spec}
        (self.directory / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (self.directory / "journal.jsonl").touch()

    def _handle(self):
        if self._journal is None:
            self._journal = (self.directory / "journal.jsonl").open(
                "a", encoding="utf-8"
            )
        return self._journal

    # -- per-checkpoint append ----------------------------------------

    def append_checkpoint(
        self,
        visited_delta: Dict[bytes, frozenset],
        terminal_keys: Sequence[str],
        violations: Sequence[dict],
        schedule: Tuple[int, ...],
        frames: Sequence[Tuple[List[int], List[int]]],
        stats: SearchStats,
    ) -> None:
        """Append one checkpoint block and fsync it behind a commit marker.

        ``frames`` lists each stack frame's ``(choices, slept)``, bottom
        first; ``schedule`` is the top frame's activation prefix;
        ``violations`` are counterexample ``to_dict`` entries.
        """
        lines = [
            _line({"t": "v", "k": key.hex(), "s": sorted(slots)})
            for key, slots in visited_delta.items()
        ]
        lines.extend(_line({"t": "tk", "k": key_hex}) for key_hex in terminal_keys)
        lines.extend(_line({"t": "x", **violation}) for violation in violations)
        lines.append(_line({"t": "s", "sch": list(schedule), "f": list(frames)}))
        lines.append(_line({"t": "c", "stats": _stats_to_json(stats)}))
        handle = self._handle()
        handle.write("\n".join(lines) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def finish(self, result: dict) -> None:
        """Atomically record the completed result and close the journal."""
        tmp = self.directory / "result.json.tmp"
        tmp.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.directory / "result.json")
        self.close()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
