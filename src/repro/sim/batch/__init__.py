"""Columnar batch-simulation backend (numpy state-as-columns engine).

The object engine in :mod:`repro.sim.engine` executes one trial at a
time, one Python-level atomic action at a time.  This package executes
*B trials of one (algorithm, n, k, scheduler family) cell as a single
vectorized batch*:

* agent state lives in ``(B, k)`` numpy columns (location codes, phase
  counters, token tallies, inbox cursors, terminal flags),
* link queues are ``(B, n, k)`` ring buffers with head/length cursors,
* the four core algorithms' protocol generators are rewritten as masked
  column updates over an explicit phase machine
  (:mod:`repro.sim.batch.kernels`),
* scheduler decisions become per-trial index arrays: the synchronous
  family dispatches whole agent columns per round with no per-trial
  Python at all, while the randomized families drive one real
  per-trial :class:`~repro.sim.scheduler.Scheduler` instance each so
  every RNG draw is byte-identical to the object engine's.

The object engine stays on as the *differential oracle*, the same
pattern as the engine's own ``recompute_enabled_agents`` check: on
shared seeds the batch backend reproduces the object engine's
activation log, Metrics and final positions bit for bit, and
:func:`repro.sim.batch.runner.run_batch` can sample-check that promise
(``validate=True``) on every production sweep.

Batching pays only across many trials of one cell, so the backend is a
sweep-level choice (``execute_sweep(..., backend="batch")``, ``repro
psweep --backend batch``).  A single run, a campaign cell and a served
``experiment`` job are one trial each and always use the object engine:
a batch of one is slower than the object engine.
"""

from repro.sim.batch.engine import BatchEngine
from repro.sim.batch.kernels import KERNELS, batch_supported
from repro.sim.batch.runner import run_batch

__all__ = ["BatchEngine", "KERNELS", "batch_supported", "run_batch"]
