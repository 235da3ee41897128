"""The sweep backend knob end-to-end: sweeps, stores, campaign specs.

The wiring contract: ``backend="batch"`` changes *how* cells are
computed, never *what* comes out — rows, archived records, content
hashes and :meth:`RunStore.digest` are all byte-identical to the
object path.  The hypothesis property at the bottom is the strongest
form: for arbitrary small sweep specs, the two backends produce stores
with equal digests (record-for-record identical archives).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepSpec, execute_sweep
from repro.store import RunStore


def _sweep(**overrides) -> SweepSpec:
    defaults = dict(
        algorithms=("known_k_full", "unknown"),
        grid=((16, 4), (12, 3)),
        schedulers=("sync", "random", "burst:burst=3"),
        trials=2,
        base_seed=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        execute_sweep(_sweep(), processes=1, backend="vectorized")


def test_batch_backend_without_numpy_fails_in_one_line(monkeypatch, capsys):
    # numpy is the optional `batch` extra: without it, asking for the
    # batch backend is a configuration error, not an ImportError trace.
    from repro.cli import main

    for name in list(sys.modules):
        if name == "repro.sim.batch" or name.startswith("repro.sim.batch."):
            monkeypatch.delitem(sys.modules, name)
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ConfigurationError, match="needs numpy"):
        execute_sweep(_sweep(), processes=1, backend="batch")
    code = main(
        ["psweep", "--grid", "12x3", "--schedulers", "sync", "--trials", "1",
         "--jobs", "1", "--backend", "batch"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "needs numpy" in captured.err


def test_storeless_rows_identical_across_backends():
    spec = _sweep()
    object_rows = execute_sweep(spec, processes=1).rows
    batch_rows = execute_sweep(spec, processes=1, backend="batch").rows
    assert object_rows == batch_rows


def test_store_digests_identical_across_backends(tmp_path):
    spec = _sweep()
    object_store = RunStore(str(tmp_path / "object"))
    batch_store = RunStore(str(tmp_path / "batch"))
    object_outcome = execute_sweep(spec, processes=1, store=object_store)
    batch_outcome = execute_sweep(
        spec, processes=1, store=batch_store, backend="batch",
        validate_backend=True,
    )
    assert object_outcome.rows == batch_outcome.rows
    assert object_store.digest() == batch_store.digest()


def test_batch_backend_resumes_from_object_store_and_back(tmp_path):
    # Cross-backend resume: records archived by one backend are cache
    # hits for the other, in both directions.
    spec = _sweep(trials=1)
    store = RunStore(str(tmp_path / "shared"))
    first = execute_sweep(spec, processes=1, store=store)
    assert first.executed == first.total
    warm = execute_sweep(spec, processes=1, store=store, backend="batch")
    assert warm.executed == 0 and warm.cached == warm.total
    assert warm.rows == first.rows

    wider = _sweep(trials=2)  # trial 0 cached, trial 1 fresh per cell
    partial = execute_sweep(
        wider, processes=1, store=store, backend="batch"
    )
    assert partial.cached == first.total
    assert partial.executed == partial.total - first.total
    rewarm = execute_sweep(wider, processes=1, store=store)
    assert rewarm.executed == 0
    assert rewarm.rows == partial.rows


def test_batch_backend_progress_counts_every_cell():
    seen = []
    spec = _sweep(trials=1)
    execute_sweep(
        spec,
        processes=1,
        backend="batch",
        progress=lambda done, total: seen.append((done, total)),
    )
    total = len(spec.algorithms) * len(spec.grid) * len(spec.schedulers)
    assert seen == [(i, total) for i in range(1, total + 1)]


def test_cached_run_backend_batch_same_hash(tmp_path):
    # A single spec always runs on the object engine, yet a cell that a
    # batch sweep archived is a hit for it: both engines file the same
    # record under the same content hash.
    from repro.experiments.sweep import expand_cells
    from repro.store.cache import cached_run

    sweep = _sweep(trials=1)
    spec = expand_cells(sweep)[0].to_experiment_spec()
    batch_store = RunStore(str(tmp_path / "batch"))
    execute_sweep(sweep, processes=1, store=batch_store, backend="batch")
    object_store = RunStore(str(tmp_path / "object"))
    fresh, fresh_hit = cached_run(spec, object_store)
    archived, archived_hit = cached_run(spec, batch_store)
    assert (fresh_hit, archived_hit) == (False, True)
    assert archived == fresh
    assert object_store.hashes() == [spec.content_hash()]
    assert (
        batch_store.get(spec.content_hash()).result
        == object_store.get(spec.content_hash()).result
    )


def test_campaign_spec_backend_field_round_trip_and_hash_stability():
    # Specs carry no backend field, so the fleet block and both hashes
    # are the ones a default-backend spec had while the field existed
    # (pinned literals, computed before it was removed).
    spec = CampaignSpec(kind="sweep", sweep=_sweep(trials=1))
    document = spec.to_dict()
    assert "backend" not in document["fleet"]
    loaded = CampaignSpec.from_dict(document)
    assert loaded == spec
    assert loaded.content_hash() == spec.content_hash() == (
        "c123b773f454467774ef9dab8dc38f5f493704db6e27068a7dad8da4bec5b82b"
    )
    assert loaded.work_hash() == spec.work_hash() == (
        "773eec5271f3c38c8d0e1f1f466d0b55b8ea6e0c081df1eff2381e6d003b830e"
    )


def test_archived_campaign_spec_with_backend_loads_with_same_work_hash():
    # Campaign specs archived while cells could run as batches of one
    # carry fleet["backend"]; they must still load and resume the same
    # campaign ledger.
    sweep = _sweep(trials=1)
    current = CampaignSpec(kind="sweep", sweep=sweep)
    archived = current.to_dict()
    archived["fleet"]["backend"] = "batch"
    loaded = CampaignSpec.from_dict(archived)
    assert loaded.work_hash() == current.work_hash()
    assert loaded == current


@settings(max_examples=10, deadline=None)
@given(
    algorithm=st.sampled_from(
        ["known_k_full", "known_n_full", "known_k_logspace", "unknown"]
    ),
    n=st.integers(min_value=4, max_value=24),
    k=st.integers(min_value=1, max_value=6),
    scheduler=st.sampled_from(
        ["sync", "random", "chaos:epoch=5", "laggard:victims=0,patience=4"]
    ),
    trials=st.integers(min_value=1, max_value=3),
    base_seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_backend_digest_identity(
    tmp_path_factory, algorithm, n, k, scheduler, trials, base_seed
):
    k = min(k, n)
    spec = SweepSpec(
        algorithms=(algorithm,),
        grid=((n, k),),
        schedulers=(scheduler,),
        trials=trials,
        base_seed=base_seed,
    )
    root = tmp_path_factory.mktemp("digest")
    object_store = RunStore(str(root / "object"))
    batch_store = RunStore(str(root / "batch"))
    execute_sweep(spec, processes=1, store=object_store)
    execute_sweep(spec, processes=1, store=batch_store, backend="batch")
    assert object_store.digest() == batch_store.digest()
