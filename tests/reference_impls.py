"""Brute-force reference implementations shared by property tests.

Kept outside ``conftest.py`` because pytest inserts both ``tests/`` and
``benchmarks/`` on ``sys.path`` and each has a ``conftest`` module — a
plain ``from conftest import ...`` resolves to whichever directory was
collected first.  A uniquely-named module has no such collision.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.ring.configuration import (
    _PHANTOM_BYTE,
    _PHANTOM_MARKER,
    PACKED_ENCODING_VERSION,
    pack_value,
)


def brute_force_min_rotation_index(sequence) -> int:
    """Reference implementation for Booth's algorithm tests."""
    items = tuple(sequence)
    if not items:
        return 0
    best = 0
    for candidate in range(1, len(items)):
        rotated = items[candidate:] + items[:candidate]
        current = items[best:] + items[:best]
        if rotated < current:
            best = candidate
    return best


def brute_force_min_period(sequence) -> int:
    """Reference implementation for minimal rotation period."""
    items = tuple(sequence)
    for period in range(1, len(items) + 1):
        if len(items) % period == 0 and items[period:] + items[:period] == items:
            return period
    return len(items)


# ----------------------------------------------------------------------
# The canonical encodings as first written: every node packed and
# repr'd, every payload packed afresh, every rotation compared.  The
# differential tests hold the optimised methods byte-identical to these.
# ``self`` is a Configuration; the instance caches are neither read nor
# written.
# ----------------------------------------------------------------------


def reference_canonical(self) -> Tuple[object, ...]:
    """``Configuration.canonical`` before the empty-node and rotation shortcuts."""
    payloads = {
        agent_id: self._agent_payload(agent_id) for agent_id in self.agent_states
    }
    faults = self.faults
    if faults is not None:
        buffers, _lost, ordinal, loss_used, dup_used = faults
    nodes = []
    for node in range(self.ring_size):
        staying = tuple(
            sorted(
                (payloads[agent_id] for agent_id in self.staying.get(node, ())),
                key=repr,
            )
        )
        queued = tuple(
            payloads[agent_id] if agent_id >= 0 else _PHANTOM_MARKER
            for agent_id in self.queues.get(node, ())
        )
        if faults is None:
            nodes.append((self.tokens[node], staying, queued))
        else:
            # Delay buffers live on concrete links, so they rotate
            # with the ring: fold them into the node entry (payload
            # description + remaining ticks, head first).
            held = tuple(
                (
                    payloads[payload] if payload >= 0 else _PHANTOM_MARKER,
                    remaining,
                )
                for payload, remaining in buffers[node]
            )
            nodes.append((self.tokens[node], staying, queued, held))
    node_reprs = [repr(entry) for entry in nodes]
    size = self.ring_size
    best = min(
        range(size),
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
    return canonical


def reference_packed_layout(self) -> Tuple[bytes, Tuple[int, ...]]:
    """``Configuration.packed_layout`` before the payload memo and shortcuts."""
    payload_bytes = {}
    for agent_id in self.agent_states:
        buf = bytearray()
        pack_value(self._agent_payload(agent_id), buf)
        payload_bytes[agent_id] = bytes(buf)
    faults = self.faults
    if faults is not None:
        buffers, _lost, ordinal, loss_used, dup_used = faults
    blocks = []
    node_slots = []
    for node in range(self.ring_size):
        staying_ids = sorted(
            self.staying.get(node, ()),
            key=lambda agent_id: (payload_bytes[agent_id], agent_id),
        )
        queued_ids = tuple(self.queues.get(node, ()))
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
            held = buffers[node]
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
    best = min(range(size), key=lambda r: blocks[r:] + blocks[:r])
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
    return packed, slots


def reference_canonical_key(self) -> bytes:
    """``Configuration.canonical_key`` over :func:`reference_packed_layout`."""
    return hashlib.blake2b(reference_packed_layout(self)[0], digest_size=16).digest()
