"""Identifier generation for fleet members and map nodes.

Node ids are plain 128-bit ints carrying the bits of a version-4 UUID,
drawn from a per-robot seeded stream so that a whole run is reproducible
while ids stay globally unique across the team. An int hashes and compares
in C, and ``hash(uuid)`` is ``hash(uuid.int)``, so every set and sort order
is the one UUID ids gave. Messages and text dumps still show an id as UUID
text (``id_text``). All derived seeds go through SHA-256 rather than
Python's ``hash`` (which is salted per process).
"""

from __future__ import annotations

import hashlib
import random
import uuid

RobotId = int
NodeId = int

# the version nibble (bits 76-79) and the two variant bits (62-63) of a UUID
_CLEAR_VERSION_AND_VARIANT = ~(0xF000 << 64 | 0xC000 << 48) & (1 << 128) - 1
_VERSION_4_AND_VARIANT = 0x4000 << 64 | 0x8000 << 48


def derive_seed(*parts) -> int:
    """Derive a stable 128-bit integer seed from a label path."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "little")


def seed_stream(*parts):
    """``last -> derive_seed(*parts, last)``, with the prefix hashed once:
    each call copies the prefix's SHA-256 state and hashes only ``last``."""
    head = hashlib.sha256("".join(f"{p}/" for p in parts).encode())

    def seed(last) -> int:
        h = head.copy()
        h.update(str(last).encode())
        return int.from_bytes(h.digest()[:16], "little")
    return seed


def id_text(node_id: NodeId) -> str:
    """A node id as UUID text, e.g. ``12345678-1234-4678-9234-567812345678``."""
    return str(uuid.UUID(int=node_id))


class NodeIdGenerator:
    """Seeded, robot-namespaced source of unique node ids."""

    def __init__(self, seed: int, robot: RobotId):
        self._rng = random.Random(derive_seed(seed, "node-ids", robot))

    def next_id(self) -> NodeId:
        """128 random bits with the version (4) and variant (RFC 4122) bits
        set as ``uuid.UUID(int=..., version=4)`` sets them."""
        return self._rng.getrandbits(128) & _CLEAR_VERSION_AND_VARIANT | _VERSION_4_AND_VARIANT
