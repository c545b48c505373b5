"""The topometric experience map: nodes, directed pose edges, content digests.

A graph's state digest is a SHA-256 over the sorted per-item hashes of its
nodes and edges, so equal content produces equal digests no matter what
order it was built in. The digest covers the versioned content only:
``path_memory`` is a local localisation counter that each agent bumps
independently, so it is deliberately excluded (otherwise two agents holding
identical traded content would never agree on a state).

Each item's hash is computed once, the first time it is read, and cached on
the frozen item (``Node.item_hash``, ``Edge.item_hash``), so an item that
passes through many graphs and patches is hashed once. A graph keeps its
item hashes up to date as it changes: each insert or remove reads that one
item's hash, updates a hash-to-item dict and notes the hash as pending for
one sorted ``bytes`` buffer of 32-byte hash records. The next read of the
buffer folds the pending hashes in by one splice, which joins a new buffer
once from the old one's unchanged runs and the added hashes. The splice
places every hash by one binary search in C, its keys joined as one ``S32``
buffer, and sorts its cuts only when the delta drops records. A digest is
then one SHA-256 over that buffer. ``Graph.digest_after`` gives the digest
the graph would have after an item delta: it joins the spliced buffer once
and hashes it once, changes no content, and keeps the buffer and digest,
so that committing exactly that delta adopts them and splices and hashes
nothing again. ``_hashed`` keeps the last buffer hashed and its digest, and
a byte-equal buffer takes both: the two sides of a converging trade run one
SHA-256 pass between them and share one buffer. The digest bytes are the
same as hashing every item afresh (``compute_digest_from_scratch``).
``Graph.items_missing_from`` finds the items one graph holds and another
lacks by a C-level scan of the hashes; a trade between equal digests
never asks (``merging.execute_trade``). ``Graph.listed_missing_from``
tests only a given list instead: the items inserted since a state both
graphs held, when neither deleted anything since (``patches.diff``).

A graph belongs to one owner, a ``Repository`` or a caller that built it,
which changes it in place. What a graph shares with its copies is never
changed in place: each node's out-edge dict and in-neighbour ``frozenset``,
the hash buffer and the descriptor index are replaced, not edited, so
``Graph.copy`` copies only the dicts that map ids and hashes to them. Its
mutators refuse content that does not fit, by type: ``MissingTarget`` (a
``KeyError``), ``DanglingEdge``, ``DuplicateContent`` and ``SelfLoop``
(each a ``ValueError``). The patch layer shares their base ``PatchError``.

The digest of the empty graph is SHA-256 of the empty string:
``e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855``.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .ids import NodeId, RobotId, id_text
from .pose import Pose

StateDigest = bytes

EMPTY_GRAPH_DIGEST: StateDigest = hashlib.sha256(b"").digest()

# The record layouts (little-endian, unpadded), stated once: item hashes,
# the wire codec and the wire sizes in ``serialize`` are all built from them.
# A node record is NODE_HEAD (id, descriptor length), the descriptor's
# doubles, then NODE_WIRE_TAIL (inlier_count, fabmap_score, path_memory,
# product, creator, foray) on the wire or NODE_DIGEST_TAIL (the same without
# path_memory) in item hashes; the tails carry no byte-order prefix.
NODE_HEAD = "<16sI"
NODE_WIRE_TAIL = "qdqiii"
NODE_DIGEST_TAIL = "qdiii"
EDGE_RECORD = struct.Struct("<16s16s7d")  # src, dst, pose (tx ty tz qw qx qy qz)


class _cached:
    """A read-only attribute computed on first read and kept on the instance,
    as ``functools.cached_property`` does, but stored by ``object.__setattr__``
    (a frozen dataclass refuses plain assignment) among the instance's inline
    attribute values. ``cached_property`` goes through ``instance.__dict__``,
    which makes a dict object for every instance: 64 bytes more per item."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.compute(instance)
        object.__setattr__(instance, self.name, value)
        return value


def node_format(dim: int, tail: str) -> str:
    """The struct format of a node record with a ``dim``-double descriptor."""
    return f"{NODE_HEAD}{dim}d{tail}"


@functools.cache
def _node_struct(dim: int, tail: str) -> struct.Struct:
    """``node_format``'s compiled struct, kept per descriptor length."""
    return struct.Struct(node_format(dim, tail))


@dataclass(frozen=True)
class Node:
    """A place node: appearance descriptor plus quality metadata.

    ``path_memory`` counts how often the localiser matched this node; it is
    mutable agent-local state (carried on the record for convenience) and is
    not part of the content digest.

    ``item_hash`` is computed once and kept on the instance; it is not a
    field, so eq, hash and repr ignore it, and a rebuilt node computes
    its own.
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
        """Digest-relevant payload: the wire record without ``path_memory``."""
        d = self.descriptor
        return _node_struct(len(d), NODE_DIGEST_TAIL).pack(
            self.id.to_bytes(16, "big"), len(d), *d, self.inlier_count, self.fabmap_score,
            self.product, self.creator, self.foray)

    @_cached
    def item_hash(self) -> bytes:
        """The node's hash in state digests: SHA-256 of ``N`` + ``content_bytes``."""
        return hashlib.sha256(b"N" + self.content_bytes()).digest()


def node_record(node: Node) -> bytes:
    """A node's wire record: ``content_bytes`` with ``path_memory`` in place."""
    d = node.descriptor
    return _node_struct(len(d), NODE_WIRE_TAIL).pack(
        node.id.to_bytes(16, "big"), len(d), *d, node.inlier_count, node.fabmap_score,
        node.path_memory, node.product, node.creator, node.foray)


@dataclass(frozen=True)
class Edge:
    """Directed edge carrying the 6DoF relative pose between two places.

    ``item_hash`` is cached as on ``Node``, and so is the value of
    ``hash()``: the one the dataclass would compute, ``hash((src, dst,
    pose))``, so sets of edges iterate in the same order.
    """

    src: NodeId
    dst: NodeId
    pose: Pose

    def __hash__(self) -> int:
        return self._hash

    @_cached
    def _hash(self) -> int:
        """``hash((src, dst, pose))``, the dataclass's own hash, kept."""
        return hash((self.src, self.dst, self.pose))

    def content_bytes(self) -> bytes:
        """The edge's record, the same in item hashes and on the wire."""
        return EDGE_RECORD.pack(self.src.to_bytes(16, "big"), self.dst.to_bytes(16, "big"),
                                *self.pose)

    @_cached
    def item_hash(self) -> bytes:
        """The edge's hash in state digests: SHA-256 of ``E`` + ``content_bytes``."""
        return hashlib.sha256(b"E" + self.content_bytes()).digest()


@dataclass(frozen=True)
class Observation:
    """One synthetic frame: what the robot sees at a route position."""

    descriptor: tuple[float, ...]
    true_position: float
    product: int


class DescriptorIndex(NamedTuple):
    """A graph's node descriptors as one matrix: row ``i`` of ``matrix`` is
    the descriptor of ``ids[i]``, ids in the graph's insertion order.
    Shared between graphs, so never changed in place."""

    ids: tuple[NodeId, ...]
    matrix: np.ndarray


_NO_INDEX = DescriptorIndex((), np.empty((0, 0), dtype=np.float64))


class PatchError(Exception):
    """Base class for content a graph refuses and for patch failures."""


class MissingTarget(PatchError, KeyError):
    """A delete names a node or edge the graph does not hold."""

    __str__ = PatchError.__str__  # the message as given, not quoted as a key


class DanglingEdge(PatchError, ValueError):
    """An edge insertion references an absent endpoint, or a node delete
    would strand incident edges."""


class DuplicateContent(PatchError, ValueError):
    """An insertion collides with content already present."""


class SelfLoop(PatchError, ValueError):
    """An edge insertion joins a node to itself."""


_REC = 32  # bytes per record in the sorted hash buffer (one SHA-256)


class Graph:
    """Mutable node/edge store with in- and out-adjacency and item hashes.

    A graph is changed in place by its one owner; ``copy`` makes an
    independent graph. The values its dicts hold are never changed once
    stored: ``_out[id]`` (a dict of out-edges by target) and ``_in[id]`` (a
    ``frozenset`` of sources) are replaced by an edge insert or removal, so
    a copy may share them. A mutator refuses content that does not fit
    before it changes anything.

    ``_items`` maps every item hash to its node or edge. ``_sorted`` is one
    ``bytes`` buffer of the hashes as sorted 32-byte records. ``_delta``
    holds the hashes added (True) or dropped (False) since the buffer was
    last brought up to date, which ``_sorted_hashes`` does by one splice
    (``_spliced``) into a new buffer, whatever the delta's size. ``digest``
    hashes the buffer, and ``digest_after`` splices the buffer an item delta
    leads to and hashes it, both through the memo ``_hashed``, which takes
    the last buffer hashed in place of a byte-equal one. ``_after`` keeps
    the last ``digest_after`` result as (delta, digest, buffer) over the
    current buffer; every fold clears it, as the buffer it was computed over
    is then gone. A fold while ``_delta`` equals that delta installs the
    kept buffer and digest instead of splicing; any other delta is spliced
    and hashed. Kept buffers are immutable ``bytes``, so copies that share
    ``_after`` may each adopt the same one. A node entry in ``_items`` may
    carry a stale ``path_memory``; the current record is in ``_nodes``.

    ``_desc_index`` caches ``descriptor_index``: the first nodes of
    ``_nodes`` in insertion order, which ``descriptor_index`` extends by the
    nodes inserted since. Node and edge inserts, edge removals and
    ``bump_path_memory`` leave it valid; only a node removal drops it.
    Copies share it, so an extension builds new objects.
    """

    __slots__ = ("_nodes", "_out", "_in", "_items", "_sorted", "_delta", "_digest",
                 "_after", "_desc_index")

    def __init__(self) -> None:
        self._nodes: dict[NodeId, Node] = {}
        self._out: dict[NodeId, dict[NodeId, Edge]] = {}
        self._in: dict[NodeId, frozenset[NodeId]] = {}
        self._items: dict[bytes, Node | Edge] = {}
        self._sorted = b""
        self._delta: dict[bytes, bool] = {}
        self._digest: StateDigest | None = EMPTY_GRAPH_DIGEST
        self._after: tuple[dict[bytes, bool], StateDigest, bytes] | None = None
        self._desc_index: DescriptorIndex | None = None

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

        The scan over the hashes runs in C; only the missing items are
        visited in Python. They come in this graph's insertion order.
        """
        nodes: list[Node] = []
        edges: list[Edge] = []
        items = self._items
        for h in filterfalse(other._items.__contains__, items):
            item = items[h]
            if type(item) is Edge:
                edges.append(item)
            else:
                nodes.append(self._nodes[item.id])
        return nodes, edges

    def listed_missing_from(self, other: "Graph", nodes: Iterable[Node],
                            edges: Iterable[Edge]) -> tuple[list[Node], list[Edge]]:
        """Of the given nodes and edges, all held here, those whose item hash
        ``other`` lacks, in the order given; nodes come as this graph holds
        them (with its ``path_memory``). ``items_missing_from`` narrowed to a
        list known to hold every missing item, at a cost of O(len(list))."""
        theirs = other._items
        return ([self._nodes[n.id] for n in nodes if n.item_hash not in theirs],
                [e for e in edges if e.item_hash not in theirs])

    # -- mutation (used by the patch layer and the owning agent) ---------

    def insert_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise DuplicateContent(f"insert of existing node {id_text(node.id)}")
        self._nodes[node.id] = node
        self._out[node.id] = {}
        self._in[node.id] = frozenset()
        self._items[node.item_hash] = node
        self._track(node.item_hash, True)

    def remove_node(self, node_id: NodeId) -> Node:
        """Remove a node; its incident edges must already be gone."""
        if node_id not in self._nodes:
            raise MissingTarget(f"delete of absent node {id_text(node_id)}")
        if self._out[node_id] or self._in[node_id]:
            raise DanglingEdge(f"node {id_text(node_id)} deleted while edges remain")
        node = self._nodes.pop(node_id)
        del self._out[node_id]
        del self._in[node_id]
        del self._items[node.item_hash]
        self._track(node.item_hash, False)
        self._desc_index = None
        return node

    def insert_edge(self, edge: Edge) -> None:
        if edge.src not in self._nodes or edge.dst not in self._nodes:
            raise DanglingEdge(
                f"edge {id_text(edge.src)}->{id_text(edge.dst)} has an absent endpoint")
        if edge.src == edge.dst:
            raise SelfLoop(f"edge {id_text(edge.src)} is a self-loop")
        out = self._out[edge.src]
        if edge.dst in out:
            raise DuplicateContent(
                f"edge {id_text(edge.src)}->{id_text(edge.dst)} already present")
        self._out[edge.src] = {**out, edge.dst: edge}
        self._in[edge.dst] |= {edge.src}
        self._items[edge.item_hash] = edge
        self._track(edge.item_hash, True)

    def remove_edge(self, src: NodeId, dst: NodeId) -> Edge:
        if dst not in self._out.get(src, ()):
            raise MissingTarget(f"edge {id_text(src)}->{id_text(dst)} absent")
        out = self._out[src].copy()
        edge = out.pop(dst)
        self._out[src] = out
        self._in[dst] -= {src}
        del self._items[edge.item_hash]
        self._track(edge.item_hash, False)
        return edge

    def bump_path_memory(self, node_id: NodeId) -> None:
        """Record a successful localisation against this node (local state)."""
        n = self._nodes[node_id]
        self._nodes[node_id] = Node(n.id, n.descriptor, n.inlier_count, n.fabmap_score,
                                    n.path_memory + 1, n.product, n.creator, n.foray)
        # digest unaffected: path_memory is not versioned content

    def copy(self) -> "Graph":
        """An independent graph with this one's content and iteration orders.

        Only the five dicts are copied. The values they hold, the hash
        buffer and the descriptor index are shared: neither graph ever
        changes them in place. This graph is left as it was.
        """
        g = Graph.__new__(Graph)
        g._nodes, g._out, g._in = self._nodes.copy(), self._out.copy(), self._in.copy()
        g._items, g._delta = self._items.copy(), self._delta.copy()
        g._sorted, g._digest, g._after = self._sorted, self._digest, self._after
        g._desc_index = self._desc_index
        return g

    # -- digests ----------------------------------------------------------

    def _track(self, h: bytes, added: bool) -> None:
        """Note one added or dropped hash for the sorted hash buffer."""
        if self._delta.pop(h, None) is None:  # else this undoes a pending change
            self._delta[h] = added
        self._digest = None

    def _sorted_hashes(self) -> bytes:
        """The sorted hash buffer, with the pending delta folded in: the
        buffer ``digest_after`` spliced for exactly that delta, whose digest
        is then taken too, or else a new buffer spliced and joined once."""
        delta = self._delta
        if delta:
            after = self._after
            if after is not None and after[0] == delta:
                _, self._digest, self._sorted = after  # digest_after built this very buffer
            else:
                self._sorted = _spliced(self._sorted,
                                        [h for h, added in delta.items() if not added],
                                        [h for h, added in delta.items() if added])
            delta.clear()
            self._after = None  # it names the old buffer
        return self._sorted

    def digest(self) -> StateDigest:
        if self._digest is None:
            buf = self._sorted_hashes()  # may take the digest of an adopted buffer
            if self._digest is None:
                self._sorted, self._digest = _hashed(buf)
        return self._digest

    def digest_after(self, dropped: Iterable[bytes], added: Iterable[bytes]) -> StateDigest:
        """The digest this graph would have with ``dropped`` item hashes
        removed and ``added`` ones inserted; the graph is not changed.

        The buffer is spliced and joined once, and hashed by ``_hashed``,
        which takes the last buffer hashed and its digest when they are
        byte-equal, as on the second side of a converging trade. Raises
        ``KeyError`` for a dropped hash the graph does not hold.

        The result is kept as (delta, digest, buffer), with the delta as
        ``_track`` would record it, when no hash repeats, until the next fold
        replaces the buffer it read. The next fold while exactly that delta
        is pending installs the kept buffer and digest instead of splicing,
        so a commit of the patch this was computed for splices and hashes
        nothing again.
        """
        dropped, added = list(dropped), list(added)
        buf, digest = _hashed(_spliced(self._sorted_hashes(), dropped, added))
        delta = dict.fromkeys(dropped, False)
        delta.update(dict.fromkeys(added, True))
        if len(delta) == len(dropped) + len(added):
            self._after = delta, digest, buf
        return digest

    def descriptor_index(self) -> DescriptorIndex:
        """Every node's descriptor as a matrix row, in insertion order (cached).

        Until a node is removed, the cached index holds the first nodes of
        ``_nodes``, so it is extended by the nodes inserted since it was
        built. The extension makes new objects: copies share the old ones.
        """
        index = self._desc_index or _NO_INDEX
        start = len(index.ids)
        if start < len(self._nodes):
            added = list(islice(self._nodes.values(), start, None))
            block = np.array([n.descriptor for n in added], dtype=np.float64)
            ids = index.ids + tuple(n.id for n in added)
            index = self._desc_index = DescriptorIndex(
                ids, np.concatenate((index.matrix, block)) if start else block)
        return index


_memo: tuple[bytes, StateDigest] = (b"", EMPTY_GRAPH_DIGEST)


def _hashed(buf: bytes) -> tuple[bytes, StateDigest]:
    """``buf`` and its SHA-256, or the last buffer hashed and its digest if byte-equal."""
    global _memo
    if (memo := _memo)[0] != buf:  # read once: no pair another thread stores is returned
        memo = _memo = buf, hashlib.sha256(buf).digest()
    return memo


def _offsets(buf: bytes, hashes: list[bytes]) -> list[int]:
    """Byte offset of the first record in the sorted buffer not below each
    hash, by one binary search in C over the hashes joined as one ``S32``
    buffer: numpy orders ``S32`` records as ``bytes`` orders them."""
    keys = np.frombuffer(b"".join(hashes), "S32")
    return (np.searchsorted(np.frombuffer(buf, "S32"), keys) * _REC).tolist()


def _spliced(buf: bytes, dropped: Iterable[bytes], added: Iterable[bytes]) -> bytes:
    """A new sorted buffer: ``buf`` with ``added`` hashes spliced in and
    ``dropped`` records skipped, joined once from views of ``buf``'s
    unchanged runs and the added hashes. Raises ``KeyError`` for a dropped
    hash the buffer lacks."""
    added, dropped = sorted(added), list(dropped)
    offsets = _offsets(buf, added + dropped)
    # (offset, 0, hash) splices the hash in before the record at offset;
    # (offset, _REC, hash) skips that record, after any splice at the offset.
    # Sorted added hashes come at ascending offsets: only drops need a sort.
    cuts = zip(offsets, repeat(0), added)
    if dropped:
        cuts = list(cuts)
        for at, h in zip(offsets[len(added):], dropped):
            if buf[at:at + _REC] != h:
                raise KeyError(h)
            cuts.append((at, _REC, h))
        cuts.sort()
    view = memoryview(buf)
    parts = []
    start = 0
    for at, skip, h in cuts:
        if at != start:  # no empty views: a bulk build joins the added hashes alone
            parts.append(view[start:at])
        if not skip:
            parts.append(h)
        start = at + skip
    parts.append(view[start:])
    return b"".join(parts)


def compute_digest_from_scratch(graph: Graph) -> StateDigest:
    """Digest from every node's and edge's item hash, sorted afresh: a check
    on the graph's incremental hash buffer."""
    hashes = [n.item_hash for n in graph.nodes()]
    hashes += [e.item_hash for e in graph.edges()]
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


def neighbourhood(graph: Graph, seeds: Iterable[NodeId], depth: int) -> set[NodeId]:
    """Every node within ``depth`` hops of a seed, both directions: the union
    of the seeds' balls, by one breadth-first search from all of them whose
    hops gather neighbours by C-level set updates. Raises ``UnknownNode``
    for a seed not in the graph."""
    seen = set(seeds)
    for seed in seen:
        if seed not in graph:
            raise UnknownNode(seed)
    out, into = graph._out, graph._in
    frontier = seen
    for _ in range(depth):
        reached: set[NodeId] = set()
        for nid in frontier:
            reached.update(out[nid], into[nid])
        frontier = reached - seen
        if not frontier:
            break
        seen |= frontier
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
            for other in chain(graph._out.get(nid, ()), graph._in.get(nid, ())):
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
            f"node\t{id_text(n.id)}\t{desc}\t{n.inlier_count}\t{n.fabmap_score!r}"
            f"\t{n.path_memory}\t{n.product}\t{n.creator}\t{n.foray}"
        )
    for src in sorted(graph._out):
        for dst in sorted(graph._out[src]):
            e = graph._out[src][dst]
            pose = ",".join(repr(v) for v in e.pose)
            lines.append(f"edge\t{id_text(src)}\t{id_text(dst)}\t{pose}")
    return "\n".join(lines) + ("\n" if lines else "")
