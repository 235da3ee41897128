"""In-memory span and counter tracing for the benchmark's traced run.

The wrappers live here, in the benchmark's own files; the program under
test carries no tracing code.  :func:`install` replaces each traced
function with a timing wrapper *everywhere a caller looks it up*: the
defining module, every ``repro`` module that bound it with
``from x import f``, or the class that owns a method.  :func:`uninstall`
puts every original back, so the same process can run with tracing on
and off.

Two kinds of record, both kept in memory until :meth:`Tracer.to_dict`:

* **spans** at coarse boundaries (a sweep, a cell run, a batch group, a
  model-checker check, a fuzz campaign, an HTTP request), each with a
  parent id from the calling thread's span stack;
* **aggregates** for per-action functions (``canonical_key``, ``fork``,
  property checks, coverage ``observe``, store calls): a count and
  total seconds per name, with no span per call.  Each aggregated call
  is also charged to the innermost open span, so a span's *self time*
  is its duration minus its child spans minus the traced calls made
  directly under it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "install", "uninstall", "layer_metrics", "PER_LAYER"]


class Tracer:
    """Spans and aggregates of one traced process (thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.aggregates: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = 0
        return local

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, args, kwargs, on_return=None):
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        record: Dict[str, object] = {
            "id": next(self._ids),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "agg_s": 0.0,
            "agg": {},
        }
        local.stack.append(record)
        # Calls under this span are charged to it, not to an aggregated
        # call that happens to enclose it.
        saved_depth, local.depth = local.depth, 0
        record["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = perf_counter()
            local.depth = saved_depth
            local.stack.pop()
            with self._lock:
                self.spans.append(record)
        if on_return is not None:
            on_return(self, record, args, kwargs, result)
        return result

    def aggregate(self, name: str, fn: Callable, args, kwargs, on_return=None):
        local = self._state()
        local.depth += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            local.depth -= 1
            owner = local.stack[-1] if local.stack else None
            with self._lock:
                total = self.aggregates.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += elapsed
                if owner is not None:
                    per_span = owner["agg"].setdefault(name, [0, 0.0])
                    per_span[0] += 1
                    per_span[1] += elapsed
                    if local.depth == 0:
                        owner["agg_s"] += elapsed
        if on_return is not None:
            on_return(self, None, args, kwargs, result)
        return result

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "spans": [dict(span) for span in self.spans],
                "aggregates": {k: list(v) for k, v in self.aggregates.items()},
                "counters": dict(self.counters),
            }


# -- what gets traced ---------------------------------------------------------


def _on_engine_run(tracer, span, args, kwargs, result) -> None:
    span["actions"] = args[0].steps


def _on_batch_engine_run(tracer, span, args, kwargs, result) -> None:
    tracer.count("batch.actions", int(args[0].steps.sum()))


def _on_run_batch(tracer, span, args, kwargs, result) -> None:
    span["trials"] = len(result)


def _on_batch_supported(tracer, span, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("batch.fallback_cells")


def _on_execute_sweep(tracer, span, args, kwargs, result) -> None:
    span["cells"] = result.total
    span["cached"] = result.cached


def _on_check(tracer, span, args, kwargs, result) -> None:
    span["states"] = result.explored
    span["transitions"] = result.transitions
    span["memo_bytes"] = result.memo_bytes


def _on_fuzz_run(tracer, span, args, kwargs, result) -> None:
    span["runs"] = result.runs
    span["actions"] = result.steps
    span["novel"] = result.states + result.patterns


def _on_handle(tracer, span, args, kwargs, result) -> None:
    method, path = args[1].upper(), args[2].rstrip("/")
    parts = [part for part in path.split("/") if part]
    if method == "POST" and parts[1:] == ["jobs"]:
        kind = "submit"
    elif parts[1:] == ["runs"]:
        kind = "query"
    elif len(parts) == 3 and parts[1] == "runs":
        kind = "get"
    elif len(parts) == 3 and parts[1] == "jobs":
        kind = "poll"
    else:
        kind = "other"
    span["kind"] = kind


def _safety_classes():
    from repro.mc.properties import SafetyProperty

    found, todo = [], [SafetyProperty]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "check" in vars(cls):
            found.append(cls)
    return found


#: (kind, module, attribute path, traced name, on_return).  A dotted
#: attribute path names a method, patched on its class.
_TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("span", "repro.experiments.sweep", "execute_sweep", "experiments.sweep", _on_execute_sweep),
    ("span", "repro.experiments.runner", "run_experiment", "experiments.run", None),
    ("agg", "repro.experiments.runner", "build_engine", "sim.build_engine", None),
    ("span", "repro.sim.engine", "Engine.run", "sim.run", _on_engine_run),
    ("agg", "repro.sim.engine", "Engine.fork", "sim.fork", None),
    ("agg", "repro.spec", "ExperimentSpec.content_hash", "spec.content_hash", None),
    ("agg", "repro.analysis.verification", "verify_uniform_deployment", "analysis.verify", None),
    ("span", "repro.sim.batch.runner", "run_batch", "batch.run", _on_run_batch),
    ("agg", "repro.sim.batch.engine", "BatchEngine.run", "batch.engine_run", _on_batch_engine_run),
    ("agg", "repro.sim.batch.kernels", "batch_supported", "batch.supported", _on_batch_supported),
    ("agg", "repro.store.jsonl", "RunStore.put", "store.put", None),
    ("agg", "repro.store.jsonl", "RunStore.refresh", "store.refresh", None),
    ("agg", "repro.store.jsonl", "_StoreView.contains", "store.contains", None),
    ("agg", "repro.store.jsonl", "_StoreView.get", "store.get", None),
    ("agg", "repro.store.jsonl", "_StoreView.get_many", "store.get", None),
    ("agg", "repro.store.jsonl", "_StoreView.query", "store.query", None),
    ("agg", "repro.store.jsonl", "_StoreView.count", "store.query", None),
    ("agg", "repro.store.index", "SqliteLineIndex.tail", "store.index_tail", None),
    ("agg", "repro.store.index", "MemoryLineIndex.tail", "store.index_tail", None),
    ("agg", "repro.ring.configuration", "Configuration.canonical_key", "ring.canonical_key", None),
    ("agg", "repro.ring.configuration", "Configuration.canonical", "ring.canonical", None),
    ("span", "repro.mc.checker", "check_interleavings", "mc.check", _on_check),
    ("span", "repro.mc.checker", "exhaust_placements", "mc.exhaust", None),
    ("agg", "repro.mc.oracle", "PropertyOracle.check_step", "mc.oracle_check_step", None),
    ("span", "repro.fuzz.fuzzer", "ScheduleFuzzer.run", "fuzz.campaign", _on_fuzz_run),
    ("agg", "repro.fuzz.coverage", "CoverageMap.observe", "fuzz.coverage_observe", None),
    ("span", "repro.serve.api", "ServeApi.handle", "serve.request", _on_handle),
)


def _wrap(tracer: Tracer, kind: str, name: str, fn: Callable, on_return) -> Callable:
    record = tracer.span if kind == "span" else tracer.aggregate

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return record(name, fn, args, kwargs, on_return)

    return traced


#: The installed tracer and the steps that undo its patches.
_INSTALLED: List[Tuple[Tracer, List[Callable[[], None]]]] = []


def _swap_everywhere(old: Callable, new: Callable) -> None:
    """Rebind ``old`` to ``new`` in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point so it reports into ``tracer``."""
    if _INSTALLED:
        raise RuntimeError("tracing is already installed")
    undo: List[Callable[[], None]] = []
    for kind, module_name, attr, name, on_return in _TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name)
            original = vars(cls)[method]
            setattr(cls, method, _wrap(tracer, kind, name, original, on_return))
            undo.append(functools.partial(setattr, cls, method, original))
        else:
            original = getattr(module, attr)
            wrapped = _wrap(tracer, kind, name, original, on_return)
            _swap_everywhere(original, wrapped)
            undo.append(functools.partial(_swap_everywhere, wrapped, original))
    for cls in _safety_classes():
        original = vars(cls)["check"]
        setattr(cls, "check", _wrap(tracer, "agg", "mc.property_check", original, None))
        undo.append(functools.partial(setattr, cls, "check", original))
    _INSTALLED.append((tracer, undo))


def uninstall() -> Optional[Tracer]:
    """Restore every original; return the tracer that was installed."""
    if not _INSTALLED:
        return None
    tracer, undo = _INSTALLED.pop()
    for step in reversed(undo):
        step()
    return tracer


# -- per-layer metrics --------------------------------------------------------

#: name -> unit, in BENCHMARK.json order.
PER_LAYER: Dict[str, str] = {
    "sim.run_s": "s",
    "sim.actions": "count",
    "sim.actions_per_s": "1/s",
    "sim.build_engine_s": "s",
    "sim.fork_calls": "count",
    "sim.fork_s": "s",
    "spec.content_hash_calls": "count",
    "spec.content_hash_s": "s",
    "analysis.verify_s": "s",
    "experiments.sweep_self_s": "s",
    "experiments.cells": "count",
    "experiments.resume_hit_ratio": "ratio",
    "batch.run_s": "s",
    "batch.trials": "count",
    "batch.groups": "count",
    "batch.fallback_cells": "count",
    "batch.actions_per_s": "1/s",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.contains_s": "s",
    "store.get_s": "s",
    "store.refresh_calls": "count",
    "store.refresh_s": "s",
    "store.query_s": "s",
    "store.index_tail_s": "s",
    "ring.canonical_key_calls": "count",
    "ring.canonical_key_s": "s",
    "ring.canonical_calls": "count",
    "ring.canonical_s": "s",
    "mc.check_s": "s",
    "mc.states": "count",
    "mc.transitions": "count",
    "mc.states_per_transition": "ratio",
    "mc.oracle_step_s": "s",
    "mc.memo_bytes": "bytes",
    "fuzz.campaign_s": "s",
    "fuzz.runs": "count",
    "fuzz.actions": "count",
    "fuzz.coverage_observe_s": "s",
    "fuzz.oracle_step_s": "s",
    "fuzz.novel_per_run": "ratio",
    "serve.requests": "count",
    "serve.handle_s.get": "s",
    "serve.handle_s.query": "s",
    "serve.handle_s.submit": "s",
    "serve.handle_s.poll": "s",
    "serve.refresh_share.get": "ratio",
    "serve.http_overhead_ms": "ms",
    "serve.job_s": "s",
    "serve.jobs": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: List[Dict[str, object]]) -> Dict[str, float]:
    """Fold one or more :meth:`Tracer.to_dict` dumps into PER_LAYER values.

    Metrics of a layer the workload never touched read 0.  The
    ``serve.http_overhead_ms``, ``serve.job_s``, ``serve.jobs`` and
    ``trace.overhead_pct`` values come from the client side and are
    filled in by the caller.
    """
    spans: List[Dict[str, object]] = []
    aggregates: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    for source, dump in enumerate(dumps):
        spans.extend(dict(span, source=source) for span in dump["spans"])
        for name, (calls, seconds) in dump["aggregates"].items():
            total = aggregates.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def agg(name: str) -> Tuple[float, float]:
        return aggregates.get(name, (0, 0.0))

    def named(name: str) -> List[Dict[str, object]]:
        return [span for span in spans if span["name"] == name]

    def duration(span) -> float:
        return span["end"] - span["start"]

    def inside(name: str, aggregate: str) -> float:
        return sum(span["agg"].get(aggregate, (0, 0.0))[1] for span in named(name))

    child_time: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["source"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + duration(span)

    def self_time(name: str) -> float:
        return sum(
            duration(span)
            - child_time.get((span["source"], span["id"]), 0.0)
            - span["agg_s"]
            for span in named(name)
        )

    runs = named("sim.run")
    run_s = sum(duration(span) for span in runs)
    actions = sum(span["actions"] for span in runs)
    sweeps = named("experiments.sweep")
    cells = sum(span["cells"] for span in sweeps)
    batches = named("batch.run")
    batch_s = sum(duration(span) for span in batches)
    checks = named("mc.check")
    states = sum(span["states"] for span in checks)
    transitions = sum(span["transitions"] for span in checks)
    campaigns = named("fuzz.campaign")
    fuzz_runs = sum(span["runs"] for span in campaigns)
    requests = named("serve.request")

    def handle_s(kind: str) -> float:
        return sum(duration(span) for span in requests if span["kind"] == kind)

    refresh_in_gets = sum(
        span["agg"].get("store.refresh", (0, 0.0))[1]
        for span in requests if span["kind"] == "get"
    )

    return {
        "sim.run_s": run_s,
        "sim.actions": actions,
        "sim.actions_per_s": _ratio(actions, run_s),
        "sim.build_engine_s": agg("sim.build_engine")[1],
        "sim.fork_calls": agg("sim.fork")[0],
        "sim.fork_s": agg("sim.fork")[1],
        "spec.content_hash_calls": agg("spec.content_hash")[0],
        "spec.content_hash_s": agg("spec.content_hash")[1],
        "analysis.verify_s": agg("analysis.verify")[1],
        "experiments.sweep_self_s": self_time("experiments.sweep"),
        "experiments.cells": cells,
        "experiments.resume_hit_ratio": _ratio(
            sum(span["cached"] for span in sweeps), cells
        ),
        "batch.run_s": batch_s,
        "batch.trials": sum(span["trials"] for span in batches),
        "batch.groups": len(batches),
        "batch.fallback_cells": counters.get("batch.fallback_cells", 0),
        "batch.actions_per_s": _ratio(counters.get("batch.actions", 0), batch_s),
        "store.put_calls": agg("store.put")[0],
        "store.put_s": agg("store.put")[1],
        "store.contains_s": agg("store.contains")[1],
        "store.get_s": agg("store.get")[1],
        "store.refresh_calls": agg("store.refresh")[0],
        "store.refresh_s": agg("store.refresh")[1],
        "store.query_s": agg("store.query")[1],
        "store.index_tail_s": agg("store.index_tail")[1],
        "ring.canonical_key_calls": agg("ring.canonical_key")[0],
        "ring.canonical_key_s": agg("ring.canonical_key")[1],
        "ring.canonical_calls": agg("ring.canonical")[0],
        "ring.canonical_s": agg("ring.canonical")[1],
        "mc.check_s": sum(duration(span) for span in checks),
        "mc.states": states,
        "mc.transitions": transitions,
        "mc.states_per_transition": _ratio(states, transitions),
        "mc.oracle_step_s": inside("mc.check", "mc.property_check"),
        "mc.memo_bytes": max((span["memo_bytes"] for span in checks), default=0),
        "fuzz.campaign_s": sum(duration(span) for span in campaigns),
        "fuzz.runs": fuzz_runs,
        "fuzz.actions": sum(span["actions"] for span in campaigns),
        "fuzz.coverage_observe_s": agg("fuzz.coverage_observe")[1],
        "fuzz.oracle_step_s": inside("fuzz.campaign", "mc.oracle_check_step"),
        "fuzz.novel_per_run": _ratio(
            sum(span["novel"] for span in campaigns), fuzz_runs
        ),
        "serve.requests": len(requests),
        "serve.handle_s.get": handle_s("get"),
        "serve.handle_s.query": handle_s("query"),
        "serve.handle_s.submit": handle_s("submit"),
        "serve.handle_s.poll": handle_s("poll"),
        "serve.refresh_share.get": _ratio(refresh_in_gets, handle_s("get")),
        "serve.http_overhead_ms": 0.0,
        "serve.job_s": 0.0,
        "serve.jobs": 0,
        "trace.spans": len(spans),
        "trace.overhead_pct": 0.0,
    }
