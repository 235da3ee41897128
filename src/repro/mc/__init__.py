"""Interleaving model checker: exhaustive schedule-space verification.

The paper's correctness claims quantify over *every* fair asynchronous
schedule; the experiment suite samples adversarial schedulers, but a
sample can miss activation-order-specific bugs.  This package closes
that gap on small instances: :func:`check_interleavings` exhausts every
enabled-agent choice from an initial configuration via DFS over forked
engine states, memoising visited states on the rotation- and
relabelling-canonical :class:`~repro.ring.configuration.Configuration`,
checking safety properties on every edge and uniform deployment on
every terminal state, and emitting any violating path as a replayable
schedule.

Entry points: :func:`check_interleavings` (one placement; the only
code that explores a state graph, optionally checkpointed to a
resumable journal with ``store_root`` — see :mod:`repro.mc.frontier`),
:func:`exhaust_placements` (all placements of an ``(n, k)``, optionally
fanned across a process pool — the checker's only process
parallelism), :func:`replay_counterexample` (deterministic
reproduction), and the ``repro mc`` CLI command.

Exploration applies the sleep-set partial-order reduction of
:mod:`repro.mc.por` by default: redundant interleavings of commuting
agent actions (distinct action nodes) are pruned without losing any
reachable state, so verdicts and terminal sets match full expansion
while the executed-transition count roughly halves.

The property oracles are shared beyond the exhaustive search:
:class:`~repro.mc.oracle.PropertyOracle` bundles one instance's suites
for any driver, :func:`~repro.mc.oracle.drive_schedule` replays a
schedule under them with ReplayScheduler semantics, and
:func:`~repro.mc.shrink.shrink_schedule` delta-debugs a violating
schedule to a 1-minimal reproduction — the machinery the
coverage-guided fuzzer (:mod:`repro.fuzz`) builds on.
"""

from repro.mc.checker import (
    Counterexample,
    MCResult,
    all_placements,
    check_interleavings,
    exhaust_placements,
    replay_counterexample,
)
from repro.mc.frontier import FrontierSpill, check_hash, check_spec
from repro.mc.oracle import (
    PropertyOracle,
    ReplayOutcome,
    Violation,
    drive_schedule,
)
from repro.mc.por import action_node, conflict, sleep_after
from repro.mc.properties import (
    EnabledSetConsistency,
    FifoLinkIntegrity,
    MemoryBound,
    SafetyProperty,
    StructuralIntegrity,
    TerminalProperty,
    TokenMonotonicity,
    UniformTerminal,
    default_memory_limit,
    default_safety_properties,
    resolve_terminal,
)
from repro.mc.shrink import shrink_schedule
from repro.mc.state import Frame, PreState, SearchStats, capture_pre_state

__all__ = [
    "Counterexample",
    "MCResult",
    "PropertyOracle",
    "ReplayOutcome",
    "Violation",
    "FrontierSpill",
    "action_node",
    "all_placements",
    "check_hash",
    "check_interleavings",
    "check_spec",
    "conflict",
    "drive_schedule",
    "exhaust_placements",
    "replay_counterexample",
    "sleep_after",
    "resolve_terminal",
    "shrink_schedule",
    "SafetyProperty",
    "TerminalProperty",
    "StructuralIntegrity",
    "FifoLinkIntegrity",
    "TokenMonotonicity",
    "MemoryBound",
    "EnabledSetConsistency",
    "UniformTerminal",
    "default_memory_limit",
    "default_safety_properties",
    "Frame",
    "PreState",
    "SearchStats",
    "capture_pre_state",
]
