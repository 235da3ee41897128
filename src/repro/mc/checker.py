"""Exhaustive interleaving exploration with replayable counterexamples.

:func:`check_interleavings` performs a depth-first search over *every*
enabled-agent choice from one initial configuration: at each reachable
state it branches on each enabled agent, executing one atomic action per
branch on a copy-on-branch engine fork.  Visited states are memoised on
the canonical :class:`~repro.ring.configuration.Configuration` (states
equal up to ring rotation and agent relabelling are explored once —
sound, because the engine's transition relation is equivariant under
both symmetries).  Safety properties run on every edge, terminal
properties on every quiescent state, and a back-edge onto the current
DFS path is reported as a livelock cycle.

Because the search is exhaustive, a clean result at one size is a
*proof* of the paper's claim at that size: no fair asynchronous schedule
from that initial configuration can violate the property.  This is the
leap stateless model checkers (CHESS, SPIN) make for concurrent code,
applied to the paper's agent model.

Every violation is emitted as a :class:`Counterexample` whose
``schedule`` is the exact activation prefix from the initial state —
feed it to :class:`repro.sim.scheduler.ReplayScheduler` (or
:func:`replay_counterexample`) to reproduce the violation
deterministically, event for event.

With ``store_root`` the search checkpoints its memo and stack to a
journal (:mod:`repro.mc.frontier`) every :data:`CHECKPOINT_EVERY`
transitions, and ``resume=True`` continues a killed check from the last
checkpoint by replaying the stack's path once from the root.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.mc.frontier import FrontierSpill, ResumeState, check_spec
from repro.mc.por import agents_of_slots, sleep_after, slots_of_agents
from repro.mc.properties import (
    SafetyProperty,
    TerminalProperty,
    default_safety_properties,
    resolve_terminal,
)
from repro.mc.state import Frame, SearchStats, capture_pre_state
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.agent import Agent
from repro.sim.engine import Engine

__all__ = [
    "Counterexample",
    "MCResult",
    "check_interleavings",
    "exhaust_placements",
    "all_placements",
    "replay_counterexample",
]

AgentsFactory = Callable[[], Sequence[Agent]]

#: Transitions between two journal checkpoints of a ``store_root`` check.
#: Fixed, so a check's journal is a deterministic function of its spec.
CHECKPOINT_EVERY = 250


@dataclass(frozen=True)
class Counterexample:
    """A violating execution, pinned down to a replayable schedule.

    ``schedule`` is the agent-activation prefix from the initial
    configuration up to and including the violating action (for
    ``terminal`` violations it runs all the way to quiescence).  The
    kinds are ``safety`` (an edge property failed), ``terminal`` (a
    quiescent state is not a uniform deployment) and ``cycle`` (the
    search returned to a state on its own path — a livelock schedule).
    """

    algorithm: str
    placement: Placement
    schedule: Tuple[int, ...]
    kind: str
    property_name: str
    message: str

    def describe(self) -> str:
        return (
            f"[{self.kind}:{self.property_name}] {self.message} | "
            f"{self.placement.describe()} | schedule={list(self.schedule)}"
        )

    def replay_line(self) -> str:
        """A one-line reproduction recipe for bug reports and tests."""
        return (
            f"ReplayScheduler({list(self.schedule)}) on "
            f"Placement(ring_size={self.placement.ring_size}, "
            f"homes={self.placement.homes}) with {self.algorithm!r}"
        )

    def to_dict(self) -> dict:
        """The violation entry of :meth:`MCResult.to_dict`."""
        return {
            "kind": self.kind,
            "property": self.property_name,
            "message": self.message,
            "schedule": list(self.schedule),
        }

    @classmethod
    def from_dict(
        cls, entry: dict, algorithm: str, placement: Placement
    ) -> "Counterexample":
        return cls(
            algorithm=algorithm,
            placement=placement,
            schedule=tuple(entry["schedule"]),
            kind=entry["kind"],
            property_name=entry["property"],
            message=entry["message"],
        )


@dataclass(frozen=True)
class MCResult:
    """Outcome of one exhaustive check of one initial configuration.

    ``por_skipped`` counts enabled transitions the sleep-set reduction
    proved redundant and never executed; ``memo_bytes`` approximates the
    peak visited-memo footprint; ``terminal_keys`` are the canonical
    keys (hex) of every quiescent state reached — the differential POR
    gate compares them against full expansion.
    """

    algorithm: str
    placement: Placement
    explored: int
    transitions: int
    deduped: int
    terminals: int
    max_depth: int
    complete: bool
    violations: Tuple[Counterexample, ...]
    por_skipped: int = 0
    memo_bytes: int = 0
    terminal_keys: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the schedule space was exhausted with no violation."""
        return self.complete and not self.violations

    @property
    def verdict(self) -> str:
        """``ok`` / ``violation`` / ``truncated`` — the one-word outcome."""
        if self.violations:
            return "violation"
        return "ok" if self.complete else "truncated"

    def describe(self) -> str:
        status = "EXHAUSTED" if self.complete else "TRUNCATED"
        verdict = "ok" if not self.violations else f"{len(self.violations)} VIOLATIONS"
        return (
            f"{status} {self.algorithm} {self.placement.describe()}: "
            f"{self.explored} states, {self.transitions} transitions, "
            f"{self.deduped} deduped, {self.por_skipped} por-skipped, "
            f"{self.terminals} terminal, "
            f"max depth {self.max_depth} -> {verdict}"
        )

    @classmethod
    def from_dict(cls, record: dict) -> "MCResult":
        """Rebuild a result from :meth:`to_dict` output (a stored ``result.json``)."""
        placement = Placement(
            ring_size=record["placement"]["ring_size"],
            homes=tuple(record["placement"]["homes"]),
        )
        algorithm = record["algorithm"]
        return cls(
            algorithm=algorithm,
            placement=placement,
            explored=record["explored"],
            transitions=record["transitions"],
            deduped=record["deduped"],
            terminals=record["terminals"],
            max_depth=record["max_depth"],
            complete=record["complete"],
            violations=tuple(
                Counterexample.from_dict(entry, algorithm, placement)
                for entry in record["violations"]
            ),
            por_skipped=record["por_skipped"],
            memo_bytes=record["memo_bytes"],
            terminal_keys=tuple(record["terminal_keys"]),
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable record (``repro mc --json``, CI artifacts)."""
        return {
            "algorithm": self.algorithm,
            "placement": {
                "ring_size": self.placement.ring_size,
                "homes": list(self.placement.homes),
            },
            "verdict": self.verdict,
            "ok": self.ok,
            "complete": self.complete,
            "explored": self.explored,
            "transitions": self.transitions,
            "deduped": self.deduped,
            "por_skipped": self.por_skipped,
            "terminals": self.terminals,
            "max_depth": self.max_depth,
            "memo_bytes": self.memo_bytes,
            "terminal_keys": list(self.terminal_keys),
            "violations": [violation.to_dict() for violation in self.violations],
        }


def _cycle_message(depth: int) -> str:
    """The livelock-cycle violation text (shared with the replay check)."""
    return (
        "schedule returns to a state already on its own path "
        f"after {depth} actions"
    )


def _make_engine(
    algorithm: str,
    placement: Placement,
    factory: Optional[AgentsFactory],
    links: Optional[LinkSpec] = None,
) -> Engine:
    if factory is not None:
        return Engine(
            placement=placement,
            agents=list(factory()),
            collect_metrics=False,
            record_views=True,
            links=links,
        )
    from repro.experiments.runner import build_engine

    return build_engine(
        algorithm,
        placement,
        collect_metrics=False,
        record_views=True,
        links=links,
    )


def check_interleavings(
    algorithm: str,
    placement: Placement,
    *,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    depth_limit: Optional[int] = None,
    max_states: Optional[int] = None,
    stop_at_first: bool = True,
    por: bool = True,
    links: Optional[LinkSpec] = None,
    progress: Optional[Callable[[SearchStats], None]] = None,
    progress_every: int = 5000,
    store_root: Optional[str] = None,
    resume: bool = False,
) -> MCResult:
    """Exhaust every fair interleaving from ``placement`` under ``algorithm``.

    ``factory`` overrides agent construction (used to inject broken
    variants); ``algorithm`` then only labels the result, and the
    terminal requirement must be derivable (registered name) or given
    explicitly via ``require_halted`` / ``require_suspended``.

    ``depth_limit`` bounds the schedule prefix length and ``max_states``
    the visited-state count; hitting either leaves ``complete=False``
    (the result is then a bounded check, not a proof).  With
    ``stop_at_first=False`` the search records every violation but never
    explores past a violating state.

    ``por=True`` (the default) applies the sleep-set partial-order
    reduction of :mod:`repro.mc.por`: redundant interleavings of
    commuting agent actions are pruned *without* losing any reachable
    state, so verdicts, explored-state counts and terminal-state sets
    are identical to full expansion while the executed-transition count
    drops.  ``por=False`` restores plain full expansion.

    ``links`` injects a :class:`~repro.ring.faults.LinkSpec`: the state
    graph gains link-actor branches (delayed deliveries, phantom
    consumption) and the default safety suite switches to its
    fault-aware variants.  Sleep sets are unsound under the shared
    fault-draw stream (see :mod:`repro.mc.por`), so an active spec
    forces full expansion regardless of ``por``.

    ``store_root`` journals the search to ``<store_root>/mc/<check-hash>/``
    (:mod:`repro.mc.frontier`): a checkpoint every
    :data:`CHECKPOINT_EVERY` transitions and ``result.json`` at the end.
    ``resume=True`` returns a finished check's stored result, or
    continues a killed one from its last checkpoint; either way the
    result equals the uninterrupted, unspilled search's.  Without
    ``resume`` any previous journal for the same check is wiped.
    """
    n, k = placement.ring_size, placement.agent_count
    if links is not None and not links.active:
        links = None
    if links is not None:
        por = False  # agent moves stop commuting: shared draw stream
    safety_props: Tuple[SafetyProperty, ...] = tuple(
        default_safety_properties(n, k, links) if safety is None else safety
    )
    terminal_props: Tuple[TerminalProperty, ...] = (
        (resolve_terminal(algorithm, require_halted, require_suspended),)
        if terminal is None
        else tuple(terminal)
    )

    spill: Optional[FrontierSpill] = None
    resumed: Optional[ResumeState] = None
    if store_root is not None:
        spill = FrontierSpill(
            store_root,
            check_spec(
                algorithm,
                placement,
                por=por,
                depth_limit=depth_limit,
                max_states=max_states,
                stop_at_first=stop_at_first,
                safety_props=safety_props,
                terminal_props=terminal_props,
                links=links,
            ),
        )
        if resume:
            stored = spill.load_result()
            if stored is not None:
                return MCResult.from_dict(stored)
            resumed = spill.resume_state()
        if resumed is None:
            spill.start_fresh()

    violations: List[Counterexample] = []

    def record(kind: str, name: str, message: str, schedule: Tuple[int, ...]) -> None:
        violations.append(
            Counterexample(
                algorithm=algorithm,
                placement=placement,
                schedule=schedule,
                kind=kind,
                property_name=name,
                message=message,
            )
        )

    root = _make_engine(algorithm, placement, factory, links)
    if resumed is None:
        root_key = root.snapshot().canonical_key()
        stats = SearchStats(explored=1)
        # visited maps canonical key -> sleep slots the state was (last)
        # explored under; an empty set means it was fully expanded.
        visited: dict = {root_key: frozenset()}
        terminal_keys: List[str] = []
        stack: List[Frame] = [
            Frame(
                engine=root,
                key=root_key,
                schedule=(),
                choices=list(reversed(root.enabled_agents())),
            )
        ]
    else:
        stats = resumed.stats
        visited = resumed.visited
        terminal_keys = resumed.terminal_keys
        violations.extend(
            Counterexample.from_dict(entry, algorithm, placement)
            for entry in resumed.violations
        )
        stack = _replay_stack(root, resumed)
    on_path = {frame.key for frame in stack}
    complete = not stats.truncated
    # Memo writes since the last checkpoint (None: no journal).
    dirty: Optional[dict] = None
    if spill is not None:
        dirty = {} if resumed is not None else dict(visited)
        journaled_terminals = len(terminal_keys)
        journaled_violations = len(violations)
        next_checkpoint = stats.transitions + CHECKPOINT_EVERY

    while stack:
        if dirty is not None and stats.transitions >= next_checkpoint:
            spill.append_checkpoint(
                dirty,
                terminal_keys[journaled_terminals:],
                [v.to_dict() for v in violations[journaled_violations:]],
                stack[-1].schedule,
                [(f.choices, sorted(f.slept)) for f in stack],
                stats,
            )
            dirty = {}
            journaled_terminals = len(terminal_keys)
            journaled_violations = len(violations)
            next_checkpoint = stats.transitions + CHECKPOINT_EVERY
        frame = stack[-1]
        if not frame.choices:
            on_path.discard(frame.key)
            stack.pop()
            continue
        agent_id = frame.choices.pop()
        child = frame.take_engine()
        # Sleep inheritance is decided against the *source* state's agent
        # locations, so compute it before the child engine steps.
        if por and frame.slept:
            child_sleep = sleep_after(child, frame.slept, agent_id, n)
        else:
            child_sleep = set()
        pre = capture_pre_state(child)
        child.step(agent_id)
        schedule = frame.schedule + (agent_id,)
        stats.transitions += 1
        if len(schedule) > stats.max_depth:
            stats.max_depth = len(schedule)
        if progress is not None and stats.transitions % progress_every == 0:
            progress(stats)

        snapshot = child.snapshot()
        broken = False
        for prop in safety_props:
            message = prop.check(pre, child, snapshot, agent_id)
            if message is not None:
                record("safety", prop.name, message, schedule)
                broken = True
                break
        if broken:
            if stop_at_first:
                break
            continue  # never explore past a violating state

        key = snapshot.canonical_key()
        if key in on_path:
            record(
                "cycle",
                "livelock-cycle",
                _cycle_message(len(schedule)),
                schedule,
            )
            if stop_at_first:
                break
            continue
        stored = visited.get(key)
        if stored is not None:
            sleep_slots = slots_of_agents(snapshot, child_sleep)
            if stored <= sleep_slots:
                # Everything the first visit slept through is slept here
                # too — the revisit adds nothing.  Pure memo hit.
                stats.deduped += 1
                frame.slept.add(agent_id)
                continue
            # Revisit under a smaller sleep set: transitions the stored
            # visit slept through are no longer covered on this path.
            # Re-expand exactly the difference (stored sets shrink
            # monotonically, so this terminates).
            reopen = stored - sleep_slots
            visited[key] = stored & sleep_slots
            if dirty is not None:
                dirty[key] = visited[key]
            stats.deduped += 1
            reopen_agents = sorted(agents_of_slots(snapshot, reopen))
            enabled = child.enabled_agents()
            stack.append(
                Frame(
                    engine=child,
                    key=key,
                    schedule=schedule,
                    choices=list(reversed(reopen_agents)),
                    slept=set(enabled) - set(reopen_agents),
                )
            )
            on_path.add(key)
            frame.slept.add(agent_id)
            continue
        sleep_slots = slots_of_agents(snapshot, child_sleep)
        visited[key] = sleep_slots
        if dirty is not None:
            dirty[key] = sleep_slots
        stats.explored += 1

        if child.quiescent:
            stats.terminals += 1
            terminal_keys.append(key.hex())
            for prop in terminal_props:
                message = prop.check(child, snapshot)
                if message is not None:
                    record("terminal", prop.name, message, schedule)
                    broken = True
                    break
            if broken and stop_at_first:
                break
            frame.slept.add(agent_id)
            continue
        if depth_limit is not None and len(schedule) >= depth_limit:
            stats.truncated += 1
            complete = False
            continue
        if max_states is not None and stats.explored >= max_states:
            complete = False
            break

        enabled = child.enabled_agents()
        if child_sleep:
            choices = [a for a in enabled if a not in child_sleep]
            stats.por_skipped += len(enabled) - len(choices)
        else:
            choices = list(enabled)
        stack.append(
            Frame(
                engine=child,
                key=key,
                schedule=schedule,
                choices=list(reversed(choices)),
                slept=set(child_sleep),
            )
        )
        on_path.add(key)
        frame.slept.add(agent_id)

    if stop_at_first and violations:
        complete = False  # the search stopped early by design

    stats.memo_bytes = sum(16 + 8 * len(slots) for slots in visited.values())
    result = MCResult(
        algorithm=algorithm,
        placement=placement,
        explored=stats.explored,
        transitions=stats.transitions,
        deduped=stats.deduped,
        terminals=stats.terminals,
        max_depth=stats.max_depth,
        complete=complete,
        violations=tuple(violations),
        por_skipped=stats.por_skipped,
        memo_bytes=stats.memo_bytes,
        terminal_keys=tuple(sorted(terminal_keys)),
    )
    if spill is not None:
        spill.finish(result.to_dict())
    return result


def _replay_stack(root: Engine, resumed: ResumeState) -> List[Frame]:
    """Rebuild a checkpointed DFS stack by replaying its path once.

    Frame ``i`` sits at ``resumed.schedule[:i]``.  The root engine walks
    the path; a frame that still has choices keeps a fork of it (the top
    frame keeps the walker itself), and every frame's canonical key is
    recomputed for the on-path set.
    """
    stack: List[Frame] = []
    engine = root
    last = len(resumed.choices) - 1
    for depth, (choices, slept) in enumerate(zip(resumed.choices, resumed.slept)):
        if depth:
            engine.step(resumed.schedule[depth - 1])
        own: Optional[Engine] = None
        if choices:
            own = engine if depth == last else engine.fork()
        stack.append(
            Frame(
                engine=own,
                key=engine.snapshot().canonical_key(),
                schedule=resumed.schedule[:depth],
                choices=list(choices),
                slept=set(slept),
            )
        )
    return stack


def all_placements(
    ring_size: int, agent_count: int, *, dedupe_rotations: bool = True
) -> Iterator[Placement]:
    """Every initial configuration with one home fixed at node 0.

    The ring is anonymous, so fixing one home at node 0 enumerates all
    configurations up to rotation *of the node labels*.  Two placements
    whose distance sequences are rotations of each other are still the
    same anonymous configuration, though — agent ids carry no meaning —
    so with ``dedupe_rotations`` (the default) only one representative
    per necklace class is yielded: the verification grid never
    re-verifies a symmetric initial configuration.  Pass
    ``dedupe_rotations=False`` to recover the raw ``C(n-1, k-1)``
    enumeration.
    """
    seen = set()
    for others in itertools.combinations(range(1, ring_size), agent_count - 1):
        placement = Placement(ring_size=ring_size, homes=(0,) + others)
        if dedupe_rotations:
            distances = placement.distances
            necklace = min(
                distances[i:] + distances[:i] for i in range(len(distances))
            )
            if necklace in seen:
                continue
            seen.add(necklace)
        yield placement


def exhaust_placements(
    algorithm: str,
    ring_size: int,
    agent_count: int,
    *,
    dedupe_rotations: bool = True,
    jobs: int = 1,
    **kwargs,
) -> List[MCResult]:
    """Run :func:`check_interleavings` on every placement of ``(n, k)``.

    ``jobs > 1`` fans whole placements across a process pool (results
    keep placement order, so the output is identical to the serial run);
    it requires a registered ``algorithm`` name — ``factory`` callables
    do not cross process boundaries, and ``progress`` hooks are dropped.
    This is the model checker's only process parallelism.
    """
    placements = list(
        all_placements(ring_size, agent_count, dedupe_rotations=dedupe_rotations)
    )
    if jobs > 1:
        if kwargs.get("factory") is not None:
            raise ValueError(
                "exhaust_placements(jobs > 1) needs a registered algorithm "
                "name; agent factories do not cross process boundaries"
            )
        kwargs.pop("progress", None)
        if len(placements) > 1:
            payloads = [(algorithm, placement, kwargs) for placement in placements]
            with multiprocessing.Pool(processes=min(jobs, len(placements))) as pool:
                return pool.map(_check_placement_task, payloads)
    return [
        check_interleavings(algorithm, placement, **kwargs)
        for placement in placements
    ]


def _check_placement_task(payload: tuple) -> MCResult:
    algorithm, placement, kwargs = payload
    return check_interleavings(algorithm, placement, **kwargs)


def replay_counterexample(
    counterexample: Counterexample,
    *,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    links: Optional[LinkSpec] = None,
) -> Tuple[Engine, List[str]]:
    """Re-drive a counterexample schedule and re-check its properties.

    Rebuilds a fresh engine for the counterexample's algorithm and
    placement, executes the recorded schedule step by step, and runs
    the same property suite along the way.  Returns the final engine
    and every violation message observed — a deterministic replay of
    the original search's finding (the test suite asserts the original
    message is reproduced verbatim).  A counterexample found under a
    :class:`~repro.ring.faults.LinkSpec` must be replayed under the
    same ``links`` value — the schedule's link-actor entries only exist
    on a faulty engine.
    """
    placement = counterexample.placement
    n, k = placement.ring_size, placement.agent_count
    if links is not None and not links.active:
        links = None
    safety_props = tuple(
        default_safety_properties(n, k, links) if safety is None else safety
    )
    engine = _make_engine(counterexample.algorithm, placement, factory, links)
    messages: List[str] = []
    path_keys = {engine.snapshot().canonical_key()}
    for agent_id in counterexample.schedule:
        pre = capture_pre_state(engine)
        engine.step(agent_id)
        snapshot = engine.snapshot()
        for prop in safety_props:
            message = prop.check(pre, engine, snapshot, agent_id)
            if message is not None:
                messages.append(message)
        path_keys.add(snapshot.canonical_key())
    if counterexample.kind == "cycle":
        # A livelock schedule must land on a state it already visited:
        # the set of distinct canonical states along the path is then
        # strictly smaller than the number of path positions.
        if len(path_keys) <= len(counterexample.schedule):
            messages.append(_cycle_message(len(counterexample.schedule)))
    if counterexample.kind == "terminal":
        terminal_props: Tuple[TerminalProperty, ...] = (
            (
                resolve_terminal(
                    counterexample.algorithm, require_halted, require_suspended
                ),
            )
            if terminal is None
            else tuple(terminal)
        )
        snapshot = engine.snapshot()
        for prop in terminal_props:
            message = prop.check(engine, snapshot)
            if message is not None:
                messages.append(message)
    return engine, messages
