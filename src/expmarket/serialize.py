"""Canonical binary encoding of graphs and patches.

All integers are little-endian and fixed width; every set is length-prefixed
and sorted by node id (edges by (src, dst), elements by node id) so the same
content always serializes to the same bytes on any platform. Descriptors and
poses are IEEE-754 doubles.

Layout (versioned by the 4-byte magic). The node and edge records are the
struct formats stated in ``graph`` (``NODE_HEAD``, ``NODE_WIRE_TAIL``,
``EDGE_RECORD``), the same ones item hashes are built from:
  graph  = "EMG1" | n_nodes u64 | node* | n_edges u64 | edge*
  patch  = "EMP1" | input[32] | output[32] | n_elements u64
           | (action u8 | node | n_out u64 | edge*)*
           | n_edge_inserts u64 | edge* | n_edge_deletes u64 | edge*
"""

from __future__ import annotations

import struct
from typing import Iterable

from .graph import (EDGE_RECORD, NODE_HEAD, NODE_WIRE_TAIL, Edge, Graph, Node,
                    graph_from_content, node_format, node_record)
from .patches import Patch, PatchAction, PatchElement
from .pose import Pose

GRAPH_MAGIC = b"EMG1"
PATCH_MAGIC = b"EMP1"

_MAGIC = "<4s"
_COUNT = "<Q"  # the length prefix of every set
_ACTION = "<B"
_STATE = "<32s"


class _Reader:
    """Unpacks struct formats off a buffer in turn. Each format's size is
    checked against what is left before anything is read, so a corrupt count
    or descriptor length fails as a truncated stream without allocating."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str) -> tuple:
        start = self.pos
        self.pos += struct.calcsize(fmt)
        if self.pos > len(self.data):
            raise ValueError("truncated stream")
        return struct.unpack_from(fmt, self.data, start)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes after the encoding")


def _read_node(r: _Reader) -> Node:
    nid, dim = r.unpack(NODE_HEAD)
    desc = r.unpack(f"<{dim}d")
    # the wire tail holds the rest of Node's fields in their declared order
    return Node(int.from_bytes(nid, "big"), desc, *r.unpack("<" + NODE_WIRE_TAIL))


def _edge_set(edges: Iterable[Edge]) -> list[bytes]:
    ordered = sorted(edges, key=lambda e: (e.src, e.dst))
    return [struct.pack(_COUNT, len(ordered)), *(e.content_bytes() for e in ordered)]


def _read_edge_set(r: _Reader) -> list[Edge]:
    edges = []
    for _ in range(r.unpack(_COUNT)[0]):
        src, dst, *pose = r.unpack(EDGE_RECORD.format)
        edges.append(Edge(int.from_bytes(src, "big"), int.from_bytes(dst, "big"), Pose(*pose)))
    return edges


def graph_to_bytes(graph: Graph) -> bytes:
    ids = sorted(graph.node_ids())
    return b"".join([GRAPH_MAGIC, struct.pack(_COUNT, len(ids)),
                     *(node_record(graph.node(nid)) for nid in ids),
                     *_edge_set(graph.edges())])


def graph_from_bytes(data: bytes) -> Graph:
    r = _Reader(data)
    if r.unpack(_MAGIC) != (GRAPH_MAGIC,):
        raise ValueError("not a serialized graph")
    nodes = [_read_node(r) for _ in range(r.unpack(_COUNT)[0])]
    edges = _read_edge_set(r)
    r.finish()
    return graph_from_content(nodes, edges)


def patch_to_bytes(patch: Patch) -> bytes:
    elements = sorted(patch.elements, key=lambda el: el.node.id)
    out = [PATCH_MAGIC, patch.input_state, patch.output_state,
           struct.pack(_COUNT, len(elements))]
    for el in elements:
        out += (struct.pack(_ACTION, el.action.value), node_record(el.node),
                *_edge_set(el.out_edges))
    out += _edge_set(patch.edge_inserts) + _edge_set(patch.edge_deletes)
    return b"".join(out)


def patch_from_bytes(data: bytes) -> Patch:
    r = _Reader(data)
    if r.unpack(_MAGIC) != (PATCH_MAGIC,):
        raise ValueError("not a serialized patch")
    (input_state,), (output_state,) = r.unpack(_STATE), r.unpack(_STATE)
    elements = []
    for _ in range(r.unpack(_COUNT)[0]):
        action = PatchAction(r.unpack(_ACTION)[0])
        node = _read_node(r)
        elements.append(PatchElement(action, node, frozenset(_read_edge_set(r))))
    edge_inserts = frozenset(_read_edge_set(r))
    edge_deletes = frozenset(_read_edge_set(r))
    r.finish()
    return Patch(input_state, output_state, frozenset(elements), edge_inserts, edge_deletes)


# fixed-width parts of the layout above
_EDGE_BYTES = EDGE_RECORD.size
_DESC_BYTES = struct.calcsize("<d")
_ELEMENT_BYTES = sum(map(struct.calcsize, (_ACTION, node_format(0, NODE_WIRE_TAIL), _COUNT)))
_PATCH_BYTES = len(PATCH_MAGIC) + 3 * struct.calcsize(_COUNT)  # magic and the three set counts


def patch_wire_size(patch: Patch) -> int:
    """Bytes on the wire for a patch transfer: ``len(patch_to_bytes(patch))``,
    counted from the fixed-width layout without encoding anything."""
    size = (_PATCH_BYTES + len(patch.input_state) + len(patch.output_state)
            + _EDGE_BYTES * (len(patch.edge_inserts) + len(patch.edge_deletes)))
    for el in patch.elements:
        size += (_ELEMENT_BYTES + _DESC_BYTES * len(el.node.descriptor)
                 + _EDGE_BYTES * len(el.out_edges))
    return size
