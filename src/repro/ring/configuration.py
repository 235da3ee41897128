"""Global configuration snapshots ``C = (S, T, M, P, Q)`` (paper Table 2).

The engine exposes a :class:`Configuration` snapshot after every atomic
action (on request) and at quiescence.  Snapshots are immutable value
objects used by the verifier, the trace recorder, the impossibility
experiment (which compares *local configurations* of corresponding nodes
in two rings, Lemma 1) and the model checker (which memoises visited
states on the snapshot's canonical form).

Canonical form
--------------

Both the nodes and the agents of the model are anonymous: node indices
and agent ids exist only for the simulator's bookkeeping, and every
engine transition is equivariant under rotating the node labels and
permuting the agent ids.  Two configurations related by such a
relabelling are therefore bisimilar — they generate identical future
behaviour.  :meth:`Configuration.canonical` quotients both symmetries
out: it re-describes the state namelessly (per node: tokens, the sorted
multiset of staying-agent payloads, the queue as a payload sequence,
where a payload is the agent's started flag + state fingerprint + inbox
contents) and picks the lexicographically least rotation.  Equality and
hashing delegate to the canonical form, so a ``set`` or ``dict`` of
configurations deduplicates the whole symmetry orbit — exactly what the
model checker's visited-state memo needs.

Link-fault state
----------------

Under an active :class:`repro.ring.faults.LinkSpec` the engine carries
extra state the memo key must see: per-link delay buffers (who is held
on each link and for how many more ticks), phantom duplicate entries
(anonymous ``-1`` payloads in queues and buffers), and the draw
counters (global move ordinal plus spent loss/dup budgets — the future
fault draws are a pure function of these).  ``faults`` holds the
:meth:`repro.ring.network.RingFaults.snapshot` tuple; the canonical and
packed forms fold the buffers into each node's block *inside* the
rotation (they live on concrete links) and append the counters as a
rotation-invariant trailer.  Phantoms encode as an anonymous marker —
they carry no agent state and are interchangeable, so relabelling
soundness is preserved.  Lost agents are deliberately *not* encoded:
they never act again, so two states differing only in which (or whose)
agent was dropped — with the same spent budgets — have isomorphic
futures.  With ``faults=None`` every encoding is byte-identical to the
pre-fault format, so reliable-link memo keys and spilled checkpoints are
untouched.

Cost of the encodings
---------------------

Both forms are recomputed for every snapshot the model checker or the
fuzzer takes, so three things keep them cheap without moving a byte:

* **Payload memo.**  ``packed_layout`` reads each agent's payload bytes
  from a module-level memo, a pure-function cache of
  :func:`pack_value` that is cleared whenever it reaches
  :data:`PAYLOAD_MEMO_CAP` entries.  Its key is
  ``marshal.dumps(payload, 2)``: marshal keeps ``True``/``1``/``1.0``
  and tuples/lists/strings apart, rejects subclasses, and at version 2
  writes no identity-dependent back-references.  Two payloads that
  :func:`pack_value` separates must never share a key, and marshal
  writes every buffer-protocol object (``bytearray``, numpy scalars)
  as plain ``bytes``, so only payloads built from exact ``None``,
  ``bool``, ``int``, ``float``, ``complex``, ``str`` and their
  tuples, lists, sets and dicts are memoised.  Anything else (message
  dataclasses, bytes) is packed directly every time.
* **Empty nodes.**  A node with no staying agent, no queued entry and
  (under faults) an empty delay buffer gets its constant block or entry
  straight from its token count: no sort, no packing, no ``repr``.
* **Rotation candidates.**  The lexicographically least rotation starts
  at a least node block (or node ``repr``), so only those rotations are
  compared; the smallest-index tie-break is unchanged.
"""

from __future__ import annotations

import hashlib
import marshal
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Configuration",
    "LocalConfiguration",
    "PACKED_ENCODING_VERSION",
    "pack_value",
]

#: Version tag baked into every packed encoding.  Bump it whenever the
#: byte layout changes so spilled model-checker checkpoints keyed on the
#: encoding can never be resumed against an incompatible format.
PACKED_ENCODING_VERSION = "MC1"

#: Canonical-form stand-in for a phantom (duplicated) delivery.  Agent
#: payloads are ``(started, state, inbox)`` tuples, so a bare string can
#: never collide with one; phantoms are anonymous and interchangeable,
#: which is exactly what a shared constant marker expresses.
_PHANTOM_MARKER = "phantom"

#: Packed-form byte for a phantom payload.  Every other payload encoding
#: opens with a :func:`pack_value` type tag (``(`` for the payload
#: tuple), so the single ``*`` parses unambiguously.
_PHANTOM_BYTE = b"*"

#: Entries the payload-bytes memo holds before it is cleared.  The
#: pinned ``unknown`` n=10 k=3 check meets a few hundred distinct agent
#: payloads, so the cap bounds memory without evicting a working set.
PAYLOAD_MEMO_CAP = 4096

#: ``marshal.dumps(payload, 2)`` -> the payload's :func:`pack_value`
#: bytes (see "Cost of the encodings" in the module docstring).
_PAYLOAD_MEMO: Dict[bytes, bytes] = {}

#: Types marshal writes under codes of their own, never shared with
#: another type; a payload made only of these has a sound memo key.
_MEMO_SCALARS = frozenset({type(None), bool, int, float, complex, str})
_MEMO_CONTAINERS = frozenset({tuple, list, set, frozenset})


def pack_value(value: object, out: bytearray) -> None:
    """Append a deterministic, injective byte encoding of ``value``.

    Every encoded value is *self-delimiting* (type tag + terminator or
    length prefix), so concatenations parse unambiguously — two distinct
    values, or two distinct sequences of values, never share a byte
    string.  Covers the value types agent fingerprints use (``None``,
    bools, ints, strings, bytes, tuples/lists, frozen dataclasses) and
    falls back to tagged ``repr`` for anything exotic, mirroring the
    guarantees :meth:`Configuration.canonical` relies on.
    """
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"I%d;" % value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
    elif isinstance(value, bytes):
        out += b"B%d:" % len(value)
        out += value
    elif isinstance(value, (tuple, list)):
        out += b"(%d:" % len(value)
        for item in value:
            pack_value(item, out)
        out += b")"
    elif is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__.encode("utf-8")
        out += b"D%d:" % len(name)
        out += name
        dataclass_fields = fields(value)
        out += b"(%d:" % len(dataclass_fields)
        for f in dataclass_fields:
            pack_value(getattr(value, f.name), out)
        out += b")"
    else:
        raw = repr(value).encode("utf-8")
        out += b"R%d:" % len(raw)
        out += raw


def _memoisable(value: object) -> bool:
    """True when ``value`` holds only types whose marshal codes are unique."""
    kind = type(value)
    if kind in _MEMO_SCALARS:
        return True
    if kind in _MEMO_CONTAINERS:
        return all(_memoisable(item) for item in value)
    if kind is dict:
        return all(_memoisable(k) and _memoisable(v) for k, v in value.items())
    return False


def _payload_bytes(payload: object) -> bytes:
    """:func:`pack_value` of ``payload``, through the bounded memo."""
    try:
        key = marshal.dumps(payload, 2)
    except ValueError:  # unmarshallable, e.g. a message dataclass
        key = None
    else:
        packed = _PAYLOAD_MEMO.get(key)
        if packed is not None:
            return packed
    out = bytearray()
    pack_value(payload, out)
    packed = bytes(out)
    if key is not None and _memoisable(payload):
        if len(_PAYLOAD_MEMO) >= PAYLOAD_MEMO_CAP:
            _PAYLOAD_MEMO.clear()
        _PAYLOAD_MEMO[key] = packed
    return packed


@dataclass(frozen=True)
class LocalConfiguration:
    """The local configuration of one node (proof of Theorem 5).

    Lemma 1 compares, node by node, ``(state of v, states of all agents at
    v)``.  Tokens are the node state; agent states are the opaque,
    algorithm-defined state fingerprints of the agents staying at the node
    and of the agents queued on the incoming link, in queue order.
    """

    tokens: int
    staying_states: Tuple[object, ...]
    queued_states: Tuple[object, ...]


@dataclass(frozen=True, eq=False)
class Configuration:
    """An immutable snapshot of the full 5-tuple ``C = (S, T, M, P, Q)``.

    ``agent_states`` maps agent id to an opaque, algorithm-defined state
    fingerprint (``S``); ``tokens`` is the node token vector (``T``);
    ``inbox_sizes`` counts undelivered messages per agent (``M``);
    ``staying`` maps node to the ids of staying agents in sorted order
    (``P``); ``queues`` maps node to the incoming link queue, head first
    (``Q``).

    Two optional refinements make the snapshot an *exact* state key for
    the model checker (engine snapshots always fill them):

    * ``inboxes`` — full undelivered message contents per agent, oldest
      first (``inbox_sizes`` is its lossy projection);
    * ``started`` — whether each agent's protocol generator has run at
      least once (a never-started agent is observably different from a
      started agent whose declared state happens to look initial).

    Equality and ``hash()`` compare canonical forms (see the module
    docstring): configurations equal up to ring rotation and agent
    relabelling compare equal, distinct states never do.
    """

    ring_size: int
    agent_states: Mapping[int, object]
    tokens: Tuple[int, ...]
    inbox_sizes: Mapping[int, int]
    staying: Mapping[int, Tuple[int, ...]]
    queues: Mapping[int, Tuple[int, ...]]
    inboxes: Optional[Mapping[int, Tuple[object, ...]]] = None
    started: Optional[Mapping[int, bool]] = None
    #: ``RingFaults.snapshot()`` tuple ``(buffers, lost, ordinal,
    #: loss_used, dup_used)`` on a faulty ring, else ``None`` (see the
    #: module docstring for how it enters the canonical forms).
    faults: Optional[Tuple[object, ...]] = None
    _canonical: Optional[Tuple[object, ...]] = field(
        default=None, init=False, repr=False
    )
    _packed: Optional[bytes] = field(default=None, init=False, repr=False)
    _slots: Optional[Tuple[int, ...]] = field(default=None, init=False, repr=False)
    _key: Optional[bytes] = field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------
    # Canonical form, equality and hashing
    # ------------------------------------------------------------------

    def _agent_payload(self, agent_id: int) -> Tuple[object, ...]:
        """The nameless description of one agent: flag + state + inbox."""
        started = True if self.started is None else self.started.get(agent_id, True)
        if self.inboxes is not None:
            inbox: object = tuple(self.inboxes.get(agent_id, ()))
        else:
            inbox = self.inbox_sizes.get(agent_id, 0)
        return (started, self.agent_states[agent_id], inbox)

    def canonical(self) -> Tuple[object, ...]:
        """Return the rotation- and relabelling-invariant state key.

        The encoding lists, per node in ring order, ``(tokens, sorted
        staying payloads, queued payloads head-first)`` and selects the
        lexicographically least of the ``n`` rotations.  Payload tuples
        mix ``None``/ints/strings, which Python refuses to order
        directly, so rotations are compared through their ``repr`` — a
        deterministic, injective encoding on the value types agents use
        (ints, bools, strings, ``None``, tuples, frozen dataclasses).
        An empty node's entry and ``repr`` come straight from its token
        count, and only rotations starting at a least node ``repr`` are
        compared (the least rotation must start there).  The result is
        cached: snapshots are immutable.
        """
        if self._canonical is not None:
            return self._canonical
        payloads = {
            agent_id: self._agent_payload(agent_id) for agent_id in self.agent_states
        }
        faults = self.faults
        if faults is not None:
            buffers, _lost, ordinal, loss_used, dup_used = faults
            empty_tail, empty_repr = ((), (), ()), "(%r, (), (), ())"
        else:
            empty_tail, empty_repr = ((), ()), "(%r, (), ())"
        nodes = []
        node_reprs = []
        for node in range(self.ring_size):
            staying_ids = self.staying.get(node, ())
            queued_ids = self.queues.get(node, ())
            buffered = () if faults is None else buffers[node]
            tokens = self.tokens[node]
            if not staying_ids and not queued_ids and not buffered:
                nodes.append((tokens,) + empty_tail)
                node_reprs.append(empty_repr % (tokens,))
                continue
            staying = tuple(
                sorted((payloads[agent_id] for agent_id in staying_ids), key=repr)
            )
            queued = tuple(
                payloads[agent_id] if agent_id >= 0 else _PHANTOM_MARKER
                for agent_id in queued_ids
            )
            if faults is None:
                entry: Tuple[object, ...] = (tokens, staying, queued)
            else:
                # Delay buffers live on concrete links, so they rotate
                # with the ring: fold them into the node entry (payload
                # description + remaining ticks, head first).
                held = tuple(
                    (
                        payloads[payload] if payload >= 0 else _PHANTOM_MARKER,
                        remaining,
                    )
                    for payload, remaining in buffered
                )
                entry = (tokens, staying, queued, held)
            nodes.append(entry)
            node_reprs.append(repr(entry))
        size = self.ring_size
        least = min(node_reprs)
        best = min(
            (r for r in range(size) if node_reprs[r] == least),
            key=lambda r: tuple(node_reprs[r:] + node_reprs[:r]),
        )
        canonical = (size,) + tuple(nodes[best:] + nodes[:best])
        if faults is not None:
            # Rotation-invariant draw counters: the future fault draws
            # are a pure function of these, so states that agree on the
            # ring but diverge on spent budgets must not be merged.
            canonical = canonical + (
                ("link-faults", ordinal, loss_used, dup_used),
            )
        object.__setattr__(self, "_canonical", canonical)
        return canonical

    # ------------------------------------------------------------------
    # Packed canonical encoding (model-checker memo key)
    # ------------------------------------------------------------------

    def packed_layout(self) -> Tuple[bytes, Tuple[int, ...]]:
        """Return ``(packed, slot_to_agent)`` — the compact canonical form.

        ``packed`` is a deterministic byte string invariant under ring
        rotation and agent relabelling: per node (starting from the
        lexicographically least rotation of the byte form) it encodes the
        token count, the staying-agent payloads sorted by their encoded
        bytes, and the queued payloads head first, every piece
        self-delimiting via :func:`pack_value`.  It induces exactly the
        same state partition as :meth:`canonical` — both are injective
        per-node encodings minimised over the same rotation orbit — but
        costs a fraction of the memory of the ``repr``-tuple form.

        Payload bytes come from the module's bounded memo (keyed on
        ``marshal.dumps(payload, 2)``, only for payloads whose marshal
        codes are unique per type, cleared at :data:`PAYLOAD_MEMO_CAP`
        entries); an empty node's block is the constant
        ``b"I<tokens>;P0:Q0:"`` (plus ``F0:`` under faults); and only
        rotations starting at a least block are compared.

        ``slot_to_agent`` maps *canonical agent slots* (positions in the
        packed traversal order: per canonical node, staying agents in
        their sorted order, then queued agents head first) back to the
        snapshot's concrete agent ids.  The partial-order reducer stores
        sleep sets in slot coordinates so they survive the relabelling
        quotient; ties between identical payloads are broken by agent id,
        which is sound because tied agents are interchangeable under a
        state automorphism.  Phantom queue entries and buffer-held
        agents are excluded from the slot layout: neither is ever
        schedulable as an agent, so neither can appear in a sleep set
        (link actors are never slept — see :mod:`repro.mc.por`).
        """
        if self._packed is not None:
            assert self._slots is not None
            return self._packed, self._slots
        payload_bytes = {
            agent_id: _payload_bytes(self._agent_payload(agent_id))
            for agent_id in self.agent_states
        }
        faults = self.faults
        if faults is not None:
            buffers, _lost, ordinal, loss_used, dup_used = faults
            empty_block = b"I%d;P0:Q0:F0:"
        else:
            empty_block = b"I%d;P0:Q0:"
        blocks = []
        node_slots = []
        for node in range(self.ring_size):
            staying_ids = self.staying.get(node, ())
            queued_ids = self.queues.get(node, ())
            held = () if faults is None else buffers[node]
            if not staying_ids and not queued_ids and not held:
                blocks.append(empty_block % self.tokens[node])
                node_slots.append(())
                continue
            staying_ids = sorted(
                staying_ids,
                key=lambda agent_id: (payload_bytes[agent_id], agent_id),
            )
            block = bytearray()
            block += b"I%d;" % self.tokens[node]
            block += b"P%d:" % len(staying_ids)
            for agent_id in staying_ids:
                block += payload_bytes[agent_id]
            block += b"Q%d:" % len(queued_ids)
            for agent_id in queued_ids:
                if agent_id >= 0:
                    block += payload_bytes[agent_id]
                else:
                    block += _PHANTOM_BYTE
            if faults is not None:
                # Delay buffer of the link into this node, head first:
                # payload encoding + remaining ticks, inside the
                # rotation because buffers sit on concrete links.
                block += b"F%d:" % len(held)
                for payload, remaining in held:
                    if payload >= 0:
                        block += payload_bytes[payload]
                    else:
                        block += _PHANTOM_BYTE
                    block += b"I%d;" % remaining
            blocks.append(bytes(block))
            node_slots.append(
                tuple(staying_ids)
                + tuple(agent_id for agent_id in queued_ids if agent_id >= 0)
            )
        size = self.ring_size
        least = min(blocks)
        best = min(
            (r for r in range(size) if blocks[r] == least),
            key=lambda r: blocks[r:] + blocks[:r],
        )
        packed = b"%s;I%d;%s" % (
            PACKED_ENCODING_VERSION.encode("ascii"),
            size,
            b"".join(blocks[best:] + blocks[:best]),
        )
        if faults is not None:
            # Rotation-invariant trailer: the draw counters that fix
            # every future fault decision.  ``F;`` cannot open a node
            # block (those start with ``I``), so the trailer parses
            # unambiguously after the ``size`` blocks.
            packed += b"F;I%d;I%d;I%d;" % (ordinal, loss_used, dup_used)
        slots: Tuple[int, ...] = tuple(
            agent_id
            for node_agents in node_slots[best:] + node_slots[:best]
            for agent_id in node_agents
        )
        object.__setattr__(self, "_packed", packed)
        object.__setattr__(self, "_slots", slots)
        return packed, slots

    def packed(self) -> bytes:
        """The rotation/relabelling-invariant packed byte encoding."""
        return self.packed_layout()[0]

    def canonical_key(self) -> bytes:
        """A 16-byte blake2b digest of :meth:`packed` — the memo key.

        Collisions are cryptographically negligible at 128 bits, so the
        model checker memoises on the digest instead of the full packed
        form, cutting memo memory to a small constant per state.
        """
        if self._key is not None:
            return self._key
        key = hashlib.blake2b(self.packed(), digest_size=16).digest()
        object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def local(self, node: int) -> LocalConfiguration:
        """Return the local configuration of ``node`` (Lemma 1's unit).

        Phantom queue entries (duplicated deliveries under link faults)
        carry no agent state and are skipped; Lemma 1 compares reliable
        executions, where no phantom ever exists.
        """
        staying_states = tuple(
            self.agent_states[agent_id] for agent_id in self.staying.get(node, ())
        )
        queued_states = tuple(
            self.agent_states[agent_id]
            for agent_id in self.queues.get(node, ())
            if agent_id >= 0
        )
        return LocalConfiguration(
            tokens=self.tokens[node],
            staying_states=staying_states,
            queued_states=queued_states,
        )

    def occupied_nodes(self) -> Tuple[int, ...]:
        """Nodes with at least one staying agent, in ring order."""
        return tuple(sorted(node for node, agents in self.staying.items() if agents))

    def all_queues_empty(self) -> bool:
        """True when no agent is in transit."""
        return all(not queue for queue in self.queues.values())

    def total_messages_pending(self) -> int:
        """Total undelivered messages across all agents."""
        return sum(self.inbox_sizes.values())
