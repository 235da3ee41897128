"""The packed canonical encoding: injective, symmetric, old-key-compatible.

The model checker's memo table moved from ``repr``-tuple canonical forms
to packed bytes hashed with blake2b
(:meth:`~repro.ring.configuration.Configuration.packed_layout`).  These
tests pin the contract from three sides:

* **Hypothesis invariance** — both the old ``canonical()`` and the new
  ``packed()``/``canonical_key()`` encodings are invariant under a
  random ring rotation composed with a random agent relabelling, and
  both distinguish a mutated configuration from its original.
* **Partition differential** — on breadth-first walks of real engine
  state spaces, the new key partitions states *identically* to the old
  one (no splits, no merges); the mc-marked variant covers the full
  PR-2 verification grid.
* **Slot layout** — ``packed_layout`` enumerates every agent exactly
  once, in a relabelling-stable order (the POR sleep sets depend on it).
* **Reference differential** — ``packed_layout``, ``canonical_key`` and
  ``canonical`` equal the first-written encoders frozen in
  ``reference_impls`` on random reliable and faulty configurations.
* **Payload memo soundness** — payloads that compare equal but pack
  apart (``1``/``True``/``1.0``) never share a memo entry.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ring.configuration as configuration_module
from reference_impls import (
    reference_canonical,
    reference_canonical_key,
    reference_packed_layout,
)
from repro.experiments.runner import ALGORITHMS, build_engine
from repro.ring.configuration import Configuration, pack_value
from repro.ring.placement import Placement


# ----------------------------------------------------------------------
# Random configurations (pure data: no engine invariants required)
# ----------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from(["seek", "settle", "probe", ""]),
    st.sampled_from([0.0, -0.0, 1.0, 0.5]),
    st.floats(allow_nan=False),
)
_PAYLOADS = st.tuples(_SCALARS, _SCALARS, _SCALARS)


@st.composite
def configurations(draw, faulty: bool = False):
    """A random snapshot; ``faulty`` adds delay buffers, phantoms, losses."""
    ring_size = draw(st.integers(min_value=3, max_value=8))
    agent_count = draw(st.integers(min_value=1, max_value=4))
    places = ["stay", "queue"] + (["buffer", "lost"] if faulty else [])
    locations = draw(
        st.lists(
            st.tuples(st.integers(0, ring_size - 1), st.sampled_from(places)),
            min_size=agent_count,
            max_size=agent_count,
        )
    )
    staying = {node: [] for node in range(ring_size)}
    queues = {node: [] for node in range(ring_size)}
    buffers = {node: [] for node in range(ring_size)}
    lost = []
    for agent_id, (node, place) in enumerate(locations):
        if place == "stay":
            staying[node].append(agent_id)
        elif place == "queue":
            queues[node].append(agent_id)
        elif place == "buffer":
            buffers[node].append((agent_id, draw(st.integers(1, 2))))
        else:
            lost.append(agent_id)
    if faulty:
        for node in draw(st.lists(st.integers(0, ring_size - 1), max_size=2)):
            queues[node].append(-1)  # phantom duplicate delivery
        for node in draw(st.lists(st.integers(0, ring_size - 1), max_size=1)):
            buffers[node].append((-1, draw(st.integers(1, 2))))
    agent_states = {
        agent_id: draw(_PAYLOADS) for agent_id in range(agent_count)
    }
    inboxes = {
        agent_id: tuple(draw(st.lists(_SCALARS, max_size=2)))
        for agent_id in range(agent_count)
    }
    started = {
        agent_id: draw(st.booleans()) for agent_id in range(agent_count)
    }
    tokens = tuple(
        draw(st.integers(0, 2)) for _ in range(ring_size)
    )
    faults = None
    if faulty:
        faults = (
            tuple(tuple(buffers[node]) for node in range(ring_size)),
            tuple(lost),
            draw(st.integers(0, 9)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
        )
    return Configuration(
        ring_size=ring_size,
        agent_states=agent_states,
        tokens=tokens,
        inbox_sizes={a: len(inboxes[a]) for a in inboxes},
        staying={n: tuple(sorted(a)) for n, a in staying.items()},
        queues={n: tuple(a) for n, a in queues.items()},
        inboxes=inboxes,
        started=started,
        faults=faults,
    )


def _transform(config: Configuration, shift: int, perm: dict) -> Configuration:
    """Rotate the ring by ``shift`` and relabel agents by ``perm``."""
    n = config.ring_size
    perm = {**perm, -1: -1}  # phantoms stay anonymous
    faults = config.faults
    if faults is not None:
        buffers, lost, *counters = faults
        faults = (
            tuple(
                tuple((perm[a], ticks) for a, ticks in buffers[(node - shift) % n])
                for node in range(n)
            ),
            tuple(sorted(perm[a] for a in lost)),
            *counters,
        )
    return Configuration(
        ring_size=n,
        agent_states={perm[a]: s for a, s in config.agent_states.items()},
        tokens=tuple(config.tokens[(node - shift) % n] for node in range(n)),
        inbox_sizes={perm[a]: v for a, v in config.inbox_sizes.items()},
        staying={
            (node + shift) % n: tuple(sorted(perm[a] for a in agents))
            for node, agents in config.staying.items()
        },
        queues={
            (node + shift) % n: tuple(perm[a] for a in agents)
            for node, agents in config.queues.items()
        },
        inboxes={perm[a]: v for a, v in config.inboxes.items()},
        started={perm[a]: v for a, v in config.started.items()},
        faults=faults,
    )


_ANY_CONFIGURATION = st.one_of(configurations(), configurations(faulty=True))


@given(config=_ANY_CONFIGURATION, data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_encodings_invariant_under_rotation_and_relabelling(config, data):
    n = config.ring_size
    agents = sorted(config.agent_states)
    shift = data.draw(st.integers(0, n - 1), label="shift")
    perm_values = data.draw(st.permutations(agents), label="perm")
    perm = dict(zip(agents, perm_values))
    other = _transform(config, shift, perm)
    assert config.canonical() == other.canonical()
    assert config.packed() == other.packed()
    assert config.canonical_key() == other.canonical_key()


@given(config=configurations(), data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_both_encodings_distinguish_mutations(config, data):
    n = config.ring_size
    agents = sorted(config.agent_states)
    mutation = data.draw(
        st.sampled_from(["token", "started", "inbox"]), label="mutation"
    )
    if mutation == "token":
        node = data.draw(st.integers(0, n - 1), label="node")
        tokens = list(config.tokens)
        tokens[node] += 1  # total token count changes: no orbit aliasing
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=tuple(tokens),
            inbox_sizes=config.inbox_sizes,
            staying=config.staying,
            queues=config.queues,
            inboxes=config.inboxes,
            started=config.started,
        )
    elif mutation == "started":
        agent = data.draw(st.sampled_from(agents), label="agent")
        started = dict(config.started)
        started[agent] = not started[agent]
        # Flipping one flag changes the global started count, which no
        # rotation/relabelling can restore.
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=config.tokens,
            inbox_sizes=config.inbox_sizes,
            staying=config.staying,
            queues=config.queues,
            inboxes=config.inboxes,
            started=started,
        )
    else:
        agent = data.draw(st.sampled_from(agents), label="agent")
        inboxes = {a: tuple(v) for a, v in config.inboxes.items()}
        inboxes[agent] = inboxes[agent] + ("mutated-message",)
        mutated = Configuration(
            ring_size=n,
            agent_states=config.agent_states,
            tokens=config.tokens,
            inbox_sizes={a: len(v) for a, v in inboxes.items()},
            staying=config.staying,
            queues=config.queues,
            inboxes=inboxes,
            started=config.started,
        )
    assert config.canonical() != mutated.canonical()
    assert config.packed() != mutated.packed()
    assert config.canonical_key() != mutated.canonical_key()


# ----------------------------------------------------------------------
# pack_value: injective, self-delimiting
# ----------------------------------------------------------------------

def _packed_bytes(value) -> bytes:
    out = bytearray()
    pack_value(value, out)
    return bytes(out)


def test_pack_value_separates_confusable_values():
    # Values whose reprs or str-forms could collide must pack apart.
    confusable = [
        None,
        True,
        False,
        0,
        1,
        -1,
        12,
        (1, 2),
        ((1,), 2),
        (1, (2,)),
        ("1", 2),
        "12",
        b"12",
        "",
        (),
        ("",),
        ((),),
    ]
    packed = [_packed_bytes(v) for v in confusable]
    assert len(set(packed)) == len(confusable)


def test_pack_value_concatenation_unambiguous():
    # (a, b) vs (a', b') with a+b == a'+b' as strings must still differ.
    assert _packed_bytes(("ab", "c")) != _packed_bytes(("a", "bc"))
    assert _packed_bytes((1, 23)) != _packed_bytes((12, 3))


# ----------------------------------------------------------------------
# Partition differential against the old canonical key
# ----------------------------------------------------------------------

def _walk_and_compare(algorithm: str, placement: Placement, limit: int) -> int:
    """BFS the real state space; assert old/new keys partition alike."""
    root = build_engine(
        algorithm, placement, collect_metrics=False, record_views=True
    )
    frontier = deque([root])
    new_by_old: dict = {}
    old_by_new: dict = {}
    seen = set()
    states = 0
    while frontier and states < limit:
        engine = frontier.popleft()
        snapshot = engine.snapshot()
        states += 1
        old_key = repr(snapshot.canonical())
        new_key = snapshot.canonical_key()
        if old_key in new_by_old:
            assert new_by_old[old_key] == new_key, "old-equal states split"
        else:
            new_by_old[old_key] = new_key
        if new_key in old_by_new:
            assert old_by_new[new_key] == old_key, "old-distinct states merged"
        else:
            old_by_new[new_key] = old_key
        if new_key in seen:
            continue
        seen.add(new_key)
        for agent_id in engine.enabled_agents():
            child = engine.fork()
            child.step(agent_id)
            frontier.append(child)
    return len(seen)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_packed_key_partitions_like_canonical_small(algorithm):
    distinct = _walk_and_compare(algorithm, Placement(6, homes=(0, 2)), limit=600)
    assert distinct > 10


@pytest.mark.mc
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 2)])
def test_packed_key_partitions_like_canonical_grid(algorithm, n, k):
    from repro.mc import all_placements

    for placement in all_placements(n, k, dedupe_rotations=False):
        _walk_and_compare(algorithm, placement, limit=100_000)


# ----------------------------------------------------------------------
# Slot layout
# ----------------------------------------------------------------------

def test_packed_layout_enumerates_each_agent_once():
    engine = build_engine(
        "unknown", Placement(8, homes=(0, 3, 5)), record_views=True
    )
    for _ in range(12):
        engine.step(engine.enabled_agents()[0])
        snapshot = engine.snapshot()
        packed, slots = snapshot.packed_layout()
        assert sorted(slots) == sorted(snapshot.agent_states)
        assert snapshot.packed() is packed  # cached on the frozen instance


def test_packed_layout_slots_relabelling_stable():
    # The slot an agent occupies is a function of the anonymous state:
    # relabelled copies put the corresponding agents at the same slots.
    placement = Placement(6, homes=(0, 2))
    first = build_engine("known_k_full", placement, record_views=True)
    second = build_engine("known_k_full", placement, record_views=True)
    for engine in (first, second):
        for _ in range(5):
            engine.step(engine.enabled_agents()[0])
    a = first.snapshot()
    b = second.snapshot()
    assert a.packed() == b.packed()
    layout_a = a.packed_layout()[1]
    layout_b = b.packed_layout()[1]
    payload_a = [a._agent_payload(agent) for agent in layout_a]
    payload_b = [b._agent_payload(agent) for agent in layout_b]
    assert payload_a == payload_b


# ----------------------------------------------------------------------
# Reference differential: byte-identical to the first-written encoders
# ----------------------------------------------------------------------

@given(config=_ANY_CONFIGURATION)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_encodings_equal_reference_encoders(config):
    assert config.packed_layout() == reference_packed_layout(config)
    assert config.canonical_key() == reference_canonical_key(config)
    assert config.canonical() == reference_canonical(config)
    # Tuple equality takes 1 == True == 1.0; repr does not.
    assert repr(config.canonical()) == repr(reference_canonical(config))


# ----------------------------------------------------------------------
# Payload memo soundness
# ----------------------------------------------------------------------

def _one_agent(scalar=None, message=None, faulty: bool = False) -> Configuration:
    """One agent at node 1 of a 4-ring (in its delay buffer if ``faulty``)."""
    state = ("Probe", False, False, (("flag", scalar),), ())
    inbox = () if message is None else (message,)
    faults = (((), ((0, 1),), (), ()), (), 3, 0, 0) if faulty else None
    return Configuration(
        ring_size=4,
        agent_states={0: state},
        tokens=(1, 0, 0, 0),
        inbox_sizes={0: len(inbox)},
        staying={1: () if faulty else (0,)},
        queues={},
        inboxes={0: inbox},
        started={0: True},
        faults=faults,
    )


#: Pairs of payload values that compare (and hash) equal yet pack apart.
_ALIASES = [(1, True), (0, False), (1, 1.0)]


def _variants():
    for first, second in _ALIASES:
        yield f"scalar-{first!r}-{second!r}", (
            _one_agent(scalar=first),
            _one_agent(scalar=second),
        )
        yield f"message-{first!r}-{second!r}", (
            _one_agent(message=first),
            _one_agent(message=second),
        )
    yield "buffered-1-True", (
        _one_agent(scalar=1, faulty=True),
        _one_agent(scalar=True, faulty=True),
    )


_VARIANTS = dict(_variants())


@pytest.mark.parametrize("name", sorted(_VARIANTS))
@pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "rev"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_payload_memo_keeps_equal_but_distinct_payloads_apart(name, reverse, warm):
    configs = _VARIANTS[name]
    assert configs[0]._agent_payload(0) == configs[1]._agent_payload(0)
    if reverse:
        configs = configs[::-1]

    # packed_layout caches on the instance; a replace()d copy packs again.
    configuration_module._PAYLOAD_MEMO.clear()
    if warm:
        for config in configs:
            dataclasses.replace(config).packed()
    packed = []
    for config in configs:
        copy = dataclasses.replace(config)
        assert copy.packed_layout() == reference_packed_layout(config)
        packed.append(copy)
    assert packed[0].packed() != packed[1].packed()
    assert packed[0].canonical_key() != packed[1].canonical_key()


def test_payload_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(configuration_module, "PAYLOAD_MEMO_CAP", 3)
    configuration_module._PAYLOAD_MEMO.clear()
    for value in range(10):
        config = _one_agent(scalar=value)
        assert config.packed_layout() == reference_packed_layout(config)
        assert len(configuration_module._PAYLOAD_MEMO) <= 3


def test_payload_memo_skips_buffer_aliases():
    # marshal writes a bytearray like the bytes it holds; pack_value
    # does not, so neither may be memoised under the shared key.
    configuration_module._PAYLOAD_MEMO.clear()
    as_bytes = _one_agent(scalar=b"\x01")
    as_bytearray = _one_agent(scalar=bytearray(b"\x01"))
    for config in (as_bytes, as_bytearray):
        assert config.packed_layout() == reference_packed_layout(config)
    assert as_bytes.packed() != as_bytearray.packed()
    assert not configuration_module._PAYLOAD_MEMO
