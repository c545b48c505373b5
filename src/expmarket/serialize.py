"""Canonical binary encoding of graphs and patches.

All integers are little-endian and fixed width; every set is length-prefixed
and sorted by node id (edges by (src, dst), elements by node id) so the same
content always serializes to the same bytes on any platform. Descriptors and
poses are IEEE-754 doubles.

Layout summary (versioned by the 4-byte magic):
  node   = id[16] | dim u32 | descriptor f64*dim | inliers i64 | fabmap f64
           | path_memory i64 | product i32 | creator i32 | foray i32
  edge   = src[16] | dst[16] | pose f64*7
  graph  = "EMG1" | n_nodes u64 | node* | n_edges u64 | edge*
  patch  = "EMP1" | input[32] | output[32] | n_elements u64
           | (action u8 | node | n_out u64 | edge*)*
           | n_edge_inserts u64 | edge* | n_edge_deletes u64 | edge*
"""

from __future__ import annotations

import struct
import uuid
from typing import Iterable

from .graph import Edge, Graph, Node, graph_from_content
from .patches import Patch, PatchAction, PatchElement
from .pose import Pose

GRAPH_MAGIC = b"EMG1"
PATCH_MAGIC = b"EMP1"

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U8 = struct.Struct("<B")


class _Writer:
    def __init__(self):
        self.chunks: list[bytes] = []

    def raw(self, b: bytes):
        self.chunks.append(b)

    def u8(self, v: int):
        self.raw(_U8.pack(v))

    def u32(self, v: int):
        self.raw(_U32.pack(v))

    def u64(self, v: int):
        self.raw(_U64.pack(v))

    def i32(self, v: int):
        self.raw(_I32.pack(v))

    def i64(self, v: int):
        self.raw(_I64.pack(v))

    def f64(self, v: float):
        self.raw(_F64.pack(v))

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated stream")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return _U8.unpack(self.raw(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.raw(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.raw(8))[0]

    def i32(self) -> int:
        return _I32.unpack(self.raw(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self.raw(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self.raw(8))[0]

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes after the encoding")


def _write_node(w: _Writer, n: Node) -> None:
    w.raw(n.id.bytes)
    w.u32(len(n.descriptor))
    for v in n.descriptor:
        w.f64(v)
    w.i64(n.inlier_count)
    w.f64(n.fabmap_score)
    w.i64(n.path_memory)
    w.i32(n.product)
    w.i32(n.creator)
    w.i32(n.foray)


def _read_node(r: _Reader) -> Node:
    nid = uuid.UUID(bytes=r.raw(16))
    dim = r.u32()
    desc = tuple(r.f64() for _ in range(dim))
    return Node(
        id=nid,
        descriptor=desc,
        inlier_count=r.i64(),
        fabmap_score=r.f64(),
        path_memory=r.i64(),
        product=r.i32(),
        creator=r.i32(),
        foray=r.i32(),
    )


def _write_edge(w: _Writer, e: Edge) -> None:
    w.raw(e.src.bytes)
    w.raw(e.dst.bytes)
    w.raw(e.pose.to_bytes())


def _read_edge(r: _Reader) -> Edge:
    src = uuid.UUID(bytes=r.raw(16))
    dst = uuid.UUID(bytes=r.raw(16))
    return Edge(src, dst, Pose.from_bytes(r.raw(56)))


def _write_edge_set(w: _Writer, edges: Iterable[Edge]) -> None:
    ordered = sorted(edges, key=lambda e: (e.src, e.dst))
    w.u64(len(ordered))
    for e in ordered:
        _write_edge(w, e)


def _read_edge_set(r: _Reader) -> list[Edge]:
    return [_read_edge(r) for _ in range(r.u64())]


def graph_to_bytes(graph: Graph) -> bytes:
    w = _Writer()
    w.raw(GRAPH_MAGIC)
    ids = sorted(graph.node_ids())
    w.u64(len(ids))
    for nid in ids:
        _write_node(w, graph.node(nid))
    _write_edge_set(w, graph.edges())
    return w.getvalue()


def graph_from_bytes(data: bytes) -> Graph:
    r = _Reader(data)
    if r.raw(4) != GRAPH_MAGIC:
        raise ValueError("not a serialized graph")
    nodes = [_read_node(r) for _ in range(r.u64())]
    edges = _read_edge_set(r)
    r.finish()
    return graph_from_content(nodes, edges)


def patch_to_bytes(patch: Patch) -> bytes:
    w = _Writer()
    w.raw(PATCH_MAGIC)
    w.raw(patch.input_state)
    w.raw(patch.output_state)
    elements = sorted(patch.elements, key=lambda el: el.node.id)
    w.u64(len(elements))
    for el in elements:
        w.u8(el.action.value)
        _write_node(w, el.node)
        _write_edge_set(w, el.out_edges)
    _write_edge_set(w, patch.edge_inserts)
    _write_edge_set(w, patch.edge_deletes)
    return w.getvalue()


def patch_from_bytes(data: bytes) -> Patch:
    r = _Reader(data)
    if r.raw(4) != PATCH_MAGIC:
        raise ValueError("not a serialized patch")
    input_state = r.raw(32)
    output_state = r.raw(32)
    elements = []
    for _ in range(r.u64()):
        action = PatchAction(r.u8())
        node = _read_node(r)
        out_edges = frozenset(_read_edge_set(r))
        elements.append(PatchElement(action, node, out_edges))
    edge_inserts = frozenset(_read_edge_set(r))
    edge_deletes = frozenset(_read_edge_set(r))
    r.finish()
    return Patch(input_state, output_state, frozenset(elements), edge_inserts, edge_deletes)


# fixed-width parts of the layout above
_EDGE_BYTES = 16 + 16 + 7 * 8
_NODE_BYTES = 16 + 4 + 8 + 8 + 8 + 4 + 4 + 4  # plus 8 per descriptor value
_ELEMENT_BYTES = 1 + _NODE_BYTES + 8  # action, node, n_out
_PATCH_BYTES = len(PATCH_MAGIC) + 3 * 8  # magic and the three set counts


def patch_wire_size(patch: Patch) -> int:
    """Bytes on the wire for a patch transfer: ``len(patch_to_bytes(patch))``,
    counted from the fixed-width layout without encoding anything."""
    size = (_PATCH_BYTES + len(patch.input_state) + len(patch.output_state)
            + _EDGE_BYTES * (len(patch.edge_inserts) + len(patch.edge_deletes)))
    for el in patch.elements:
        size += _ELEMENT_BYTES + 8 * len(el.node.descriptor) + _EDGE_BYTES * len(el.out_edges)
    return size
