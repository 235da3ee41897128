"""Placement pool and the spillable breadth-first frontier driver.

Two drivers over :mod:`repro.mc.checker`, each for a job the DFS of
:func:`check_interleavings` does not do on its own:

* :func:`check_placements_pool` — whole placements of an ``(n, k)``
  grid fan across a process pool, each worker running the ordinary
  serial DFS.  Results keep placement order, so the output is
  byte-identical to the serial grid.  This is the only process
  parallelism the model checker has: a single configuration always
  runs the DFS.

* :func:`check_frontier` — a serial, wave-synchronous breadth-first
  driver whose open frontier and visited memo can be spilled to disk
  and resumed (:mod:`repro.mc.frontier`).  With ``store_root`` set,
  every wave is committed to an append-only journal and a killed check
  resumes from the last commit with identical cumulative stats.  Each
  wave is expanded in sorted ``(key, schedule)`` order and its children
  merged in the same order, so the counters are deterministic and
  equal to the DFS's (pinned by tests).

A frontier item carries the activation schedule that reaches it, not
an engine: the driver rebuilds each state by replaying that schedule
on a pristine root engine — the view-replay mechanism
:meth:`Engine.fork` uses — at ``O(depth)`` steps per expanded state,
the price of a frontier that can be written to disk.

The breadth-first driver retains every guarantee of the DFS *except*
livelock-cycle detection (there is no DFS path to find a back-edge
onto); the four paper algorithms and the selftest bug are cycle-free,
and the serial DFS remains the default for plain ``repro mc``.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Sequence, Tuple

from repro.mc.checker import (
    AgentsFactory,
    Counterexample,
    MCResult,
    _make_engine,
    check_interleavings,
)
from repro.mc.frontier import FrontierItem, FrontierSpill, ResumeState, check_spec
from repro.mc.por import sleep_after, slots_of_agents
from repro.mc.properties import (
    SafetyProperty,
    TerminalProperty,
    default_safety_properties,
    resolve_terminal,
)
from repro.mc.state import SearchStats, capture_pre_state
from repro.ring.faults import LinkSpec
from repro.ring.placement import Placement
from repro.sim.engine import Engine

__all__ = ["check_frontier", "check_placements_pool"]


# ----------------------------------------------------------------------
# Placement-level pool (grids)
# ----------------------------------------------------------------------


def _check_placement_task(payload: tuple) -> MCResult:
    algorithm, placement, kwargs = payload
    return check_interleavings(algorithm, placement, **kwargs)


def check_placements_pool(
    algorithm: str,
    placements: Sequence[Placement],
    *,
    jobs: int,
    **kwargs,
) -> List[MCResult]:
    """Fan whole placements across a process pool, preserving order.

    Requires a registered ``algorithm`` name: ``factory`` callables and
    ``progress`` hooks cannot cross process boundaries.
    """
    if kwargs.get("factory") is not None:
        raise ValueError(
            "check_placements_pool needs a registered algorithm name; "
            "agent factories do not cross process boundaries"
        )
    kwargs.pop("factory", None)
    kwargs.pop("progress", None)
    placements = list(placements)
    if jobs <= 1 or len(placements) <= 1:
        return [
            check_interleavings(algorithm, placement, **kwargs)
            for placement in placements
        ]
    payloads = [(algorithm, placement, kwargs) for placement in placements]
    with multiprocessing.Pool(processes=min(jobs, len(placements))) as pool:
        return pool.map(_check_placement_task, payloads)


# ----------------------------------------------------------------------
# Breadth-first, spillable frontier driver
# ----------------------------------------------------------------------

#: Child record produced by an expansion: (canonical key, schedule, sleep
#: slots, quiescent flag, terminal violation or None).
_Child = Tuple[bytes, Tuple[int, ...], frozenset, bool, Optional[Tuple[str, str]]]


class _Expander:
    """Expands frontier items from a pristine root engine."""

    def __init__(
        self,
        root: Engine,
        safety_props: Tuple[SafetyProperty, ...],
        terminal_props: Tuple[TerminalProperty, ...],
        por: bool,
        ring_size: int,
    ) -> None:
        self.root = root
        self.safety = safety_props
        self.terminal = terminal_props
        self.por = por
        self.ring_size = ring_size

    def _rebuild(self, schedule: Tuple[int, ...]) -> Engine:
        engine = self.root.fork()
        for agent_id in schedule:
            engine.step(agent_id)
        return engine

    def expand(
        self, item: FrontierItem
    ) -> Tuple[int, int, List[_Child], List[dict]]:
        """Expand one frontier state; return (transitions, por_skipped,
        children, violations)."""
        engine = self._rebuild(item.schedule)
        enabled = engine.enabled_agents()
        snapshot = engine.snapshot()
        layout = snapshot.packed_layout()[1]
        if item.restrict is not None:
            targets = sorted(layout[slot] for slot in item.restrict)
            slept = set(enabled) - set(targets)
            por_skipped = 0
        else:
            sleeping = {layout[slot] for slot in item.sleep}
            targets = [a for a in enabled if a not in sleeping]
            slept = set(sleeping)
            por_skipped = len(enabled) - len(targets)
        transitions = 0
        children: List[_Child] = []
        violations: List[dict] = []
        for index, agent_id in enumerate(targets):
            child = engine.fork() if index < len(targets) - 1 else engine
            if self.por and slept:
                child_sleep = sleep_after(child, slept, agent_id, self.ring_size)
            else:
                child_sleep = set()
            pre = capture_pre_state(child)
            child.step(agent_id)
            transitions += 1
            schedule = item.schedule + (agent_id,)
            child_snapshot = child.snapshot()
            broken = False
            for prop in self.safety:
                message = prop.check(pre, child, child_snapshot, agent_id)
                if message is not None:
                    violations.append(
                        {
                            "t": "x",
                            "kind": "safety",
                            "name": prop.name,
                            "msg": message,
                            "sch": list(schedule),
                        }
                    )
                    broken = True
                    break
            if broken:
                continue  # never explore past a violating state
            key = child_snapshot.canonical_key()
            sleep_slots = slots_of_agents(child_snapshot, child_sleep)
            quiescent = child.quiescent
            term: Optional[Tuple[str, str]] = None
            if quiescent:
                for prop in self.terminal:
                    message = prop.check(child, child_snapshot)
                    if message is not None:
                        term = (prop.name, message)
                        break
            children.append((key, schedule, sleep_slots, quiescent, term))
            slept.add(agent_id)
        return transitions, por_skipped, children, violations


def check_frontier(
    algorithm: str,
    placement: Placement,
    *,
    por: bool = True,
    store_root: Optional[str] = None,
    resume: bool = False,
    factory: Optional[AgentsFactory] = None,
    require_halted: Optional[bool] = None,
    require_suspended: Optional[bool] = None,
    safety: Optional[Sequence[SafetyProperty]] = None,
    terminal: Optional[Sequence[TerminalProperty]] = None,
    depth_limit: Optional[int] = None,
    max_states: Optional[int] = None,
    stop_at_first: bool = True,
    links: Optional[LinkSpec] = None,
    progress: Optional[Callable[[SearchStats], None]] = None,
) -> MCResult:
    """Breadth-first, optionally disk-spilled exploration.

    Semantics match :func:`check_interleavings` (same properties, same
    POR, same verdicts) except that livelock cycles are not detected
    and ``stop_at_first`` stops at wave granularity.  ``store_root``
    spills every wave to ``<store_root>/mc/<check-hash>/`` and
    ``resume=True`` continues a previously killed run (a completed
    run's stored result is returned directly).  ``links`` behaves as in
    :func:`check_interleavings`: fault-aware properties, link-actor
    branches, and sleep sets forced off (see :mod:`repro.mc.por`).
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
        spec = check_spec(
            algorithm,
            placement,
            por=por,
            depth_limit=depth_limit,
            max_states=max_states,
            stop_at_first=stop_at_first,
            safety_props=safety_props,
            terminal_props=terminal_props,
            links=links,
        )
        spill = FrontierSpill(store_root, spec)
        if resume:
            stored = spill.load_result()
            if stored is not None:
                return _result_from_dict(algorithm, placement, stored)
            resumed = spill.resume_state()

    def record_violation(entry: dict) -> Counterexample:
        return Counterexample(
            algorithm=algorithm,
            placement=placement,
            schedule=tuple(entry["sch"]),
            kind=entry["kind"],
            property_name=entry["name"],
            message=entry["msg"],
        )

    expander = _Expander(
        _make_engine(algorithm, placement, factory, links),
        safety_props,
        terminal_props,
        por,
        n,
    )
    if resumed is not None:
        wave = resumed.wave
        visited = resumed.visited
        frontier = resumed.frontier
        stats = resumed.stats
        violation_records = list(resumed.violations)
        terminal_keys = list(resumed.terminal_keys)
        if violation_records and stop_at_first:
            # The killed run had already found its violation; don't
            # explore further, just finalise the stored state.
            frontier = []
    else:
        root_key = expander.root.snapshot().canonical_key()
        wave = 0
        visited = {root_key: frozenset()}
        frontier = [FrontierItem(key=root_key, schedule=())]
        stats = SearchStats(explored=1)
        violation_records = []
        terminal_keys = []
        if spill is not None:
            spill.start_fresh()
            spill.append_wave(
                0, [(root_key, frozenset())], frontier, [], [], stats
            )

    complete = not stats.truncated
    while frontier:
        if max_states is not None and stats.explored >= max_states:
            complete = False
            break
        wave_violations: List[dict] = []
        children: List[_Child] = []
        for item in sorted(frontier, key=lambda item: (item.key, item.schedule)):
            transitions, por_skipped, item_children, item_violations = (
                expander.expand(item)
            )
            stats.transitions += transitions
            stats.por_skipped += por_skipped
            children.extend(item_children)
            wave_violations.extend(item_violations)
        children.sort(key=lambda child: (child[0], child[1]))

        wave_terminal_keys: List[str] = []
        visited_delta: List[Tuple[bytes, frozenset]] = []
        next_frontier: List[FrontierItem] = []
        hit_max_states = False
        for key, schedule, sleep_slots, quiescent, term in children:
            if len(schedule) > stats.max_depth:
                stats.max_depth = len(schedule)
            stored = visited.get(key)
            if stored is not None:
                if stored <= sleep_slots:
                    stats.deduped += 1
                    continue
                # Sleep-set revisit rule: re-expand exactly what the
                # stored visit slept through but this path does not.
                reopen = stored - sleep_slots
                merged = stored & sleep_slots
                visited[key] = merged
                visited_delta.append((key, merged))
                stats.deduped += 1
                next_frontier.append(
                    FrontierItem(
                        key=key,
                        schedule=schedule,
                        sleep=merged,
                        restrict=tuple(sorted(reopen)),
                    )
                )
                continue
            visited[key] = sleep_slots
            visited_delta.append((key, sleep_slots))
            stats.explored += 1
            if quiescent:
                stats.terminals += 1
                wave_terminal_keys.append(key.hex())
                if term is not None:
                    wave_violations.append(
                        {
                            "t": "x",
                            "kind": "terminal",
                            "name": term[0],
                            "msg": term[1],
                            "sch": list(schedule),
                        }
                    )
                continue
            if depth_limit is not None and len(schedule) >= depth_limit:
                stats.truncated += 1
                complete = False
                continue
            if max_states is not None and stats.explored >= max_states:
                hit_max_states = True
                break
            next_frontier.append(
                FrontierItem(key=key, schedule=schedule, sleep=sleep_slots)
            )

        terminal_keys.extend(wave_terminal_keys)
        violation_records.extend(wave_violations)
        wave += 1
        if spill is not None:
            spill.append_wave(
                wave,
                visited_delta,
                next_frontier,
                wave_violations,
                wave_terminal_keys,
                stats,
            )
        frontier = next_frontier
        if progress is not None:
            progress(stats)
        if hit_max_states:
            complete = False
            break
        if wave_violations and stop_at_first:
            break

    violations = tuple(record_violation(entry) for entry in violation_records)
    if stop_at_first and violations:
        complete = False
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
        violations=violations,
        por_skipped=stats.por_skipped,
        memo_bytes=stats.memo_bytes,
        terminal_keys=tuple(sorted(terminal_keys)),
    )
    if spill is not None:
        spill.finish(result.to_dict())
    return result


def _result_from_dict(
    algorithm: str, placement: Placement, stored: dict
) -> MCResult:
    """Rebuild an :class:`MCResult` from a spilled ``result.json``."""
    violations = tuple(
        Counterexample(
            algorithm=algorithm,
            placement=placement,
            schedule=tuple(entry["schedule"]),
            kind=entry["kind"],
            property_name=entry["property"],
            message=entry["message"],
        )
        for entry in stored.get("violations", [])
    )
    return MCResult(
        algorithm=algorithm,
        placement=placement,
        explored=stored["explored"],
        transitions=stored["transitions"],
        deduped=stored["deduped"],
        terminals=stored["terminals"],
        max_depth=stored["max_depth"],
        complete=stored["complete"],
        violations=violations,
        por_skipped=stored.get("por_skipped", 0),
        memo_bytes=stored.get("memo_bytes", 0),
        terminal_keys=tuple(stored.get("terminal_keys", ())),
    )
