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

A patch is held flat (``patches.Patch``); its elements, the paper's unit of
a node with its out-edges, are formed here at encode time. Each inserted
node (action 1) carries the inserted edges that start at it, each deleted
node (action 0) the deleted edges that start at it, and every other edge
goes in the trailing insert or delete set. The decoder flattens the
elements again.
"""

from __future__ import annotations

import struct
from typing import Iterable

from .graph import (EDGE_RECORD, NODE_HEAD, NODE_WIRE_TAIL, Edge, Graph, Node,
                    graph_from_content, node_format, node_record)
from .ids import NodeId, id_text
from .patches import Patch
from .pose import Pose

GRAPH_MAGIC = b"EMG1"
PATCH_MAGIC = b"EMP1"

_MAGIC = "<4s"
_COUNT = "<Q"  # the length prefix of every set
_ACTION = "<B"
_DELETE, _INSERT = 0, 1  # the action byte of an element
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


def _grouped(nodes: dict[NodeId, Node], edges: Iterable[Edge]
             ) -> tuple[dict[NodeId, list[Edge]], list[Edge]]:
    """Each node's out-edges among ``edges``, and the edges that start at
    none of ``nodes``."""
    out: dict[NodeId, list[Edge]] = {nid: [] for nid in nodes}
    loose = []
    for e in edges:
        (out[e.src] if e.src in out else loose).append(e)
    return out, loose


def patch_to_bytes(patch: Patch) -> bytes:
    ins_out, ins_loose = _grouped(patch.insert_nodes, patch.insert_edges)
    del_out, del_loose = _grouped(patch.delete_nodes, patch.delete_edges)
    elements = sorted([(nid, _INSERT, node, ins_out[nid])
                       for nid, node in patch.insert_nodes.items()]
                      + [(nid, _DELETE, node, del_out[nid])
                         for nid, node in patch.delete_nodes.items()],
                      key=lambda el: el[0])
    out = [PATCH_MAGIC, patch.input_state, patch.output_state,
           struct.pack(_COUNT, len(elements))]
    for _, action, node, edges in elements:
        out += (struct.pack(_ACTION, action), node_record(node), *_edge_set(edges))
    out += _edge_set(ins_loose) + _edge_set(del_loose)
    return b"".join(out)


def patch_from_bytes(data: bytes) -> Patch:
    r = _Reader(data)
    if r.unpack(_MAGIC) != (PATCH_MAGIC,):
        raise ValueError("not a serialized patch")
    (input_state,), (output_state,) = r.unpack(_STATE), r.unpack(_STATE)
    nodes: tuple[dict[NodeId, Node], dict[NodeId, Node]] = ({}, {})  # by action byte
    edges: tuple[set[Edge], set[Edge]] = (set(), set())
    for _ in range(r.unpack(_COUNT)[0]):
        (action,) = r.unpack(_ACTION)
        if action not in (_DELETE, _INSERT):
            raise ValueError(f"unknown element action {action}")
        node = _read_node(r)
        if node.id in nodes[_DELETE] or node.id in nodes[_INSERT]:
            raise ValueError(f"node {id_text(node.id)} appears in two elements")
        nodes[action][node.id] = node
        for e in _read_edge_set(r):
            if e.src != node.id:
                raise ValueError("payload edge does not originate at the element node")
            edges[action].add(e)
    edges[_INSERT].update(_read_edge_set(r))
    edges[_DELETE].update(_read_edge_set(r))
    r.finish()
    return Patch(input_state, output_state, nodes[_INSERT], nodes[_DELETE],
                 frozenset(edges[_INSERT]), frozenset(edges[_DELETE]))


# fixed-width parts of the layout above
_EDGE_BYTES = EDGE_RECORD.size
_DESC_BYTES = struct.calcsize("<d")
_ELEMENT_BYTES = sum(map(struct.calcsize, (_ACTION, node_format(0, NODE_WIRE_TAIL), _COUNT)))
_PATCH_BYTES = len(PATCH_MAGIC) + 3 * struct.calcsize(_COUNT)  # magic and the three set counts


def patch_wire_size(patch: Patch) -> int:
    """Bytes on the wire for a patch transfer: ``len(patch_to_bytes(patch))``,
    counted from the fixed-width layout without encoding anything. Every
    node is one element and every edge one record, wherever it is grouped."""
    size = (_PATCH_BYTES + len(patch.input_state) + len(patch.output_state)
            + _ELEMENT_BYTES * (len(patch.insert_nodes) + len(patch.delete_nodes))
            + _EDGE_BYTES * (len(patch.insert_edges) + len(patch.delete_edges)))
    for node in patch.insert_nodes.values():
        size += _DESC_BYTES * len(node.descriptor)
    for node in patch.delete_nodes.values():
        size += _DESC_BYTES * len(node.descriptor)
    return size
