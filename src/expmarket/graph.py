"""The topometric experience map: nodes, directed pose edges, content digests.

A graph's state digest is a SHA-256 over the sorted per-item hashes of its
nodes and edges, so equal content produces equal digests no matter what
order it was built in. The digest covers the versioned content only:
``path_memory`` is a local localisation counter that each agent bumps
independently, so it is deliberately excluded (otherwise two agents holding
identical traded content would never agree on a state).

A graph keeps its item hashes up to date as it changes: each insert or
remove hashes that one item and updates a hash-to-item dict and one sorted
``bytearray`` of 32-byte hash records (by a binary search and one splice, or
by one sort after a bulk change). A digest is then one SHA-256 over that
buffer, read in place. ``Graph.digest_after`` gives the digest the graph
would have after an item delta by streaming SHA-256 over the buffer's
segments with the added hashes spliced in and the dropped ones skipped; it
copies and changes nothing. ``Graph.items_missing_from`` finds the items one
graph holds and another lacks by a C-level scan of the hashes, and returns
nothing at once when the two digests agree: equal content-addressed states
hold equal item-hash sets. The digest bytes are the same as hashing every
item afresh (``compute_digest_from_scratch``).

``Graph.copy`` is copy-on-write: the outer dicts are copied, the hash buffer
is copied in one block, and a node's adjacency containers are copied only
when one of the two graphs first mutates them. Insertion order, and so every
iteration order, is kept. A graph handed to ``copy`` is never changed by what
its copy does.

The digest of the empty graph is SHA-256 of the empty string:
``e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855``.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from itertools import filterfalse
from typing import Iterable, Iterator

import numpy as np

from .ids import NodeId, RobotId
from .pose import Pose

StateDigest = bytes

EMPTY_GRAPH_DIGEST: StateDigest = hashlib.sha256(b"").digest()


@dataclass(frozen=True)
class Node:
    """A place node: appearance descriptor plus quality metadata.

    ``path_memory`` counts how often the localiser matched this node; it is
    mutable agent-local state (carried on the record for convenience) and is
    not part of the content digest.
    """

    id: NodeId
    descriptor: tuple[float, ...]
    inlier_count: int = 0
    fabmap_score: float = 0.0
    path_memory: int = 0
    product: int = 0
    creator: RobotId = 0
    foray: int = 0

    def content_bytes(self) -> bytes:
        """Digest-relevant payload (excludes path_memory)."""
        return b"".join(
            (
                self.id.bytes,
                struct.pack("<I", len(self.descriptor)),
                struct.pack(f"<{len(self.descriptor)}d", *self.descriptor),
                struct.pack("<q", self.inlier_count),
                struct.pack("<d", self.fabmap_score),
                struct.pack("<i", self.product),
                struct.pack("<i", self.creator),
                struct.pack("<i", self.foray),
            )
        )


@dataclass(frozen=True)
class Edge:
    """Directed edge carrying the 6DoF relative pose between two places."""

    src: NodeId
    dst: NodeId
    pose: Pose

    def content_bytes(self) -> bytes:
        return self.src.bytes + self.dst.bytes + self.pose.to_bytes()


@dataclass(frozen=True)
class Observation:
    """One synthetic frame: what the robot sees at a route position."""

    descriptor: tuple[float, ...]
    true_position: float
    timestamp: float
    product: int


def node_item_hash(node: Node) -> bytes:
    return hashlib.sha256(b"N" + node.content_bytes()).digest()


def edge_item_hash(edge: Edge) -> bytes:
    return hashlib.sha256(b"E" + edge.content_bytes()).digest()


_REC = 32  # bytes per record in the sorted hash buffer (one SHA-256)


# Record splices the sorted hash buffer takes between two digests before it
# is dropped and rebuilt by one sort. Measured on CPython 3.11 (2-vCPU VM): a
# splice (binary search plus memmove) costs 2-4 us at 300 hashes, 4-7 us at
# 3k and 17-20 us at 30k; the rebuild costs 0.03-0.05, 0.6-0.8 and 10-13 ms.
# So m splices cost one rebuild at m ~ 15, ~ 140 and ~ 600. No one value fits
# all three. 256 stays: below the 30k crossover, a trade-sized patch on a
# large map never pays a rebuild, and on a small map the overshoot is at most
# 256 splices (under 1 ms; in the convergence and fleet workloads no change
# set on a map of 300 items or fewer exceeds 64 splices).
_BISECT_LIMIT = 256


class Graph:
    """Mutable node/edge store with in- and out-adjacency and item hashes.

    Instances are confined to one owning agent; the patch layer exposes the
    value-semantics API (apply returns a fresh graph).

    ``copy`` is copy-on-write. It copies the outer dicts; each node's
    adjacency containers stay shared until a graph first mutates them.
    ``_owned`` holds the ids whose containers this graph may change in
    place, and ``copy`` clears it on both graphs.

    ``_items`` maps every item hash to its node or edge, and ``_sorted`` is
    one ``bytearray`` of the hashes as sorted 32-byte records; both are
    updated on each mutation. ``digest`` hashes that buffer in place,
    ``digest_after`` streams it with an item delta spliced in, and ``copy``
    copies it in one block. A node entry in ``_items`` may carry a stale
    ``path_memory``; the current record is in ``_nodes``.
    """

    def __init__(self) -> None:
        self._nodes: dict[NodeId, Node] = {}
        self._out: dict[NodeId, dict[NodeId, Edge]] = {}
        self._in: dict[NodeId, set[NodeId]] = {}
        self._owned: set[NodeId] = set()
        self._items: dict[bytes, Node | Edge] = {}
        self._sorted: bytearray | None = bytearray()  # None: rebuild by one sort
        self._pending = 0  # record splices since the last digest
        self._digest: StateDigest | None = EMPTY_GRAPH_DIGEST
        self._desc_index: tuple[list[NodeId], np.ndarray] | None = None

    # -- content access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> Node:
        return self._nodes[node_id]

    def node_ids(self) -> set[NodeId]:
        return set(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edge_count(self) -> int:
        return len(self._items) - len(self._nodes)

    def edges(self) -> Iterator[Edge]:
        for out in self._out.values():
            yield from out.values()

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return dst in self._out.get(src, ())

    def edge(self, src: NodeId, dst: NodeId) -> Edge:
        return self._out[src][dst]

    def out_edges(self, node_id: NodeId) -> list[Edge]:
        return list(self._out.get(node_id, {}).values())

    def in_edges(self, node_id: NodeId) -> list[Edge]:
        return [self._out[src][node_id] for src in self._in.get(node_id, ())]

    def items_missing_from(self, other: "Graph") -> tuple[list[Node], list[Edge]]:
        """This graph's nodes and edges whose item hash ``other`` lacks.

        Equal digests mean equal item-hash sets, so nothing is missing.
        Otherwise the scan over the hashes runs in C; only the missing items
        are visited in Python. They come in this graph's insertion order.
        """
        nodes: list[Node] = []
        edges: list[Edge] = []
        if self.digest() == other.digest():
            return nodes, edges
        items = self._items
        for h in filterfalse(other._items.__contains__, items):
            item = items[h]
            if type(item) is Edge:
                edges.append(item)
            else:
                nodes.append(self._nodes[item.id])
        return nodes, edges

    # -- mutation (used by the patch layer and the owning agent) ---------

    def insert_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise ValueError(f"duplicate node {node.id}")
        self._nodes[node.id] = node
        self._out[node.id] = {}
        self._in[node.id] = set()
        self._owned.add(node.id)
        self._add_item(node_item_hash(node), node)

    def remove_node(self, node_id: NodeId) -> Node:
        """Remove a node; its incident edges must already be gone."""
        if self._out.get(node_id) or self._in.get(node_id):
            raise ValueError(f"node {node_id} still has incident edges")
        node = self._nodes.pop(node_id)
        del self._out[node_id]
        del self._in[node_id]
        self._owned.discard(node_id)
        self._drop_item(node_item_hash(node))
        return node

    def insert_edge(self, edge: Edge) -> None:
        if edge.src == edge.dst:
            raise ValueError("self loop")
        if edge.src not in self._nodes or edge.dst not in self._nodes:
            raise ValueError(f"dangling edge {edge.src}->{edge.dst}")
        if edge.dst in self._out[edge.src]:
            raise ValueError(f"duplicate edge {edge.src}->{edge.dst}")
        self._own(edge.src)
        self._own(edge.dst)
        self._out[edge.src][edge.dst] = edge
        self._in[edge.dst].add(edge.src)
        self._add_item(edge_item_hash(edge), edge)

    def remove_edge(self, src: NodeId, dst: NodeId) -> Edge:
        edge = self._out[src][dst]
        self._own(src)
        self._own(dst)
        del self._out[src][dst]
        self._in[dst].discard(src)
        self._drop_item(edge_item_hash(edge))
        return edge

    def bump_path_memory(self, node_id: NodeId) -> None:
        """Record a successful localisation against this node (local state)."""
        node = self._nodes[node_id]
        self._nodes[node_id] = replace(node, path_memory=node.path_memory + 1)
        # digest unaffected: path_memory is not versioned content

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._nodes = self._nodes.copy()
        g._out = self._out.copy()
        g._in = self._in.copy()
        # the adjacency containers are shared now: neither graph owns them
        self._owned = set()
        g._owned = set()
        g._items = self._items.copy()
        g._sorted = self._sorted_hashes()[:]
        g._pending = self._pending
        g._digest = self._digest
        g._desc_index = self._desc_index
        return g

    def _own(self, node_id: NodeId) -> None:
        """Give this graph private adjacency containers for ``node_id``."""
        if node_id not in self._owned:
            self._out[node_id] = dict(self._out[node_id])
            self._in[node_id] = set(self._in[node_id])
            self._owned.add(node_id)

    # -- digests ----------------------------------------------------------

    def _add_item(self, h: bytes, item: Node | Edge) -> None:
        self._items[h] = item
        self._track(h, added=True)

    def _drop_item(self, h: bytes) -> None:
        del self._items[h]
        self._track(h, added=False)

    def _track(self, h: bytes, added: bool) -> None:
        """Keep the sorted hash buffer in step with one added or dropped hash."""
        buf = self._sorted
        if buf is not None:
            if self._pending >= _BISECT_LIMIT:
                self._sorted = None
            else:
                at = _offset(buf, h)
                if added:
                    buf[at:at] = h
                else:
                    del buf[at:at + _REC]
            self._pending += 1
        self._dirty()

    def _dirty(self) -> None:
        self._digest = None
        self._desc_index = None

    def _sorted_hashes(self) -> bytearray:
        if self._sorted is None:
            self._sorted = bytearray().join(sorted(self._items))
            self._pending = 0
        return self._sorted

    def digest(self) -> StateDigest:
        if self._digest is None:
            self._digest = hashlib.sha256(self._sorted_hashes()).digest()
            self._pending = 0
        return self._digest

    def digest_after(self, dropped: Iterable[bytes], added: Iterable[bytes]) -> StateDigest:
        """The digest this graph would have with ``dropped`` item hashes
        removed and ``added`` ones inserted; the graph is not changed.

        SHA-256 streams over the sorted buffer's segments, splicing each
        added hash in at its place and skipping each dropped record. Raises
        ``KeyError`` for a dropped hash the graph does not hold.
        """
        buf = self._sorted_hashes()
        # (offset, 0, hash) splices a hash in before the record at offset;
        # (offset, 1, hash) skips that record. Splices at one offset go in
        # hash order, and before a skip at the same offset.
        cuts = [(_offset(buf, h), 0, h) for h in added]
        for h in dropped:
            at = _offset(buf, h)
            if buf[at:at + _REC] != h:
                raise KeyError(h)
            cuts.append((at, 1, h))
        cuts.sort()
        sha = hashlib.sha256()
        start = 0
        with memoryview(buf) as view:
            for at, skip, h in cuts:
                sha.update(view[start:at])
                if skip:
                    start = at + _REC
                else:
                    sha.update(h)
                    start = at
            sha.update(view[start:])
        return sha.digest()

    def descriptor_index(self) -> tuple[list[NodeId], np.ndarray]:
        """Node ids (ascending) and their descriptors as a matrix (cached)."""
        if self._desc_index is None:
            ids = sorted(self._nodes)
            if ids:
                mat = np.array([self._nodes[i].descriptor for i in ids], dtype=np.float64)
            else:
                mat = np.empty((0, 0), dtype=np.float64)
            self._desc_index = (ids, mat)
        return self._desc_index


def _offset(buf: bytearray, h: bytes) -> int:
    """Byte offset of the first record in the sorted buffer not below ``h``."""
    lo, hi = 0, len(buf) // _REC
    while lo < hi:
        mid = (lo + hi) // 2
        at = mid * _REC
        if buf[at:at + _REC] < h:
            lo = mid + 1
        else:
            hi = mid
    return lo * _REC


def compute_digest_from_scratch(graph: Graph) -> StateDigest:
    """Digest rehashed from every node and edge, for coherence checks."""
    hashes = [node_item_hash(n) for n in graph.nodes()]
    hashes += [edge_item_hash(e) for e in graph.edges()]
    hashes.sort()
    return hashlib.sha256(b"".join(hashes)).digest()


def graph_from_content(nodes: Iterable[Node], edges: Iterable[Edge]) -> Graph:
    g = Graph()
    for n in nodes:
        g.insert_node(n)
    for e in edges:
        g.insert_edge(e)
    return g


class UnknownNode(KeyError):
    pass


def neighbourhood(graph: Graph, seed: NodeId, depth: int) -> set[NodeId]:
    """Breadth-first ball of ``depth`` hops around ``seed``, both directions."""
    if seed not in graph:
        raise UnknownNode(seed)
    seen = {seed}
    frontier = [seed]
    for _ in range(depth):
        nxt = []
        for nid in frontier:
            for other in list(graph._out.get(nid, ())) + list(graph._in.get(nid, ())):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        if not nxt:
            break
        frontier = nxt
    return seen


def connected_components(graph: Graph) -> list[set[NodeId]]:
    """Partition of the node set under undirected edge connectivity."""
    unvisited = set(graph._nodes)
    parts: list[set[NodeId]] = []
    while unvisited:
        start = unvisited.pop()
        comp = {start}
        stack = [start]
        while stack:
            nid = stack.pop()
            for other in list(graph._out.get(nid, ())) + list(graph._in.get(nid, ())):
                if other in unvisited:
                    unvisited.discard(other)
                    comp.add(other)
                    stack.append(other)
        parts.append(comp)
    return parts


def export_text(graph: Graph) -> str:
    """Line-oriented dump: one node or edge per line, tab-separated."""
    lines = []
    for nid in sorted(graph._nodes):
        n = graph._nodes[nid]
        desc = ",".join(repr(v) for v in n.descriptor)
        lines.append(
            f"node\t{n.id}\t{desc}\t{n.inlier_count}\t{n.fabmap_score!r}"
            f"\t{n.path_memory}\t{n.product}\t{n.creator}\t{n.foray}"
        )
    for src in sorted(graph._out):
        for dst in sorted(graph._out[src]):
            e = graph._out[src][dst]
            pose = ",".join(repr(v) for v in (e.pose.tx, e.pose.ty, e.pose.tz,
                                              e.pose.qw, e.pose.qx, e.pose.qy, e.pose.qz))
            lines.append(f"edge\t{src}\t{dst}\t{pose}")
    return "\n".join(lines) + ("\n" if lines else "")
