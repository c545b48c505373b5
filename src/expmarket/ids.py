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


def derive_seed(*parts) -> int:
    """Derive a stable 128-bit integer seed from a label path."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "little")


def id_text(node_id: NodeId) -> str:
    """A node id as UUID text, e.g. ``12345678-1234-4678-9234-567812345678``."""
    return str(uuid.UUID(int=node_id))


class NodeIdGenerator:
    """Seeded, robot-namespaced source of unique node ids."""

    def __init__(self, seed: int, robot: RobotId):
        self._rng = random.Random(derive_seed(seed, "node-ids", robot))

    def next_id(self) -> NodeId:
        return uuid.UUID(int=self._rng.getrandbits(128), version=4).int
