"""Test oracles: views of graphs, patches and catalogues the package never needs.

``export_text`` dumps a graph one item a line, so two graphs compare as
text. ``connected_components`` partitions a graph's nodes under undirected
connectivity. ``patches_equal`` compares two patches as transformations.
``catalogue_to_text`` writes a catalogue back in the format
``catalogue.parse_catalogue`` reads.
"""

from __future__ import annotations

from itertools import chain

from expmarket.catalogue import Catalogue
from expmarket.graph import Graph
from expmarket.ids import NodeId, id_text
from expmarket.patches import Patch


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


def patches_equal(a: Patch, b: Patch) -> bool:
    """Same transformation: equal insert/delete sets by id and full payload."""
    return (a.insert_nodes == b.insert_nodes and a.delete_nodes == b.delete_nodes
            and a.insert_edges == b.insert_edges and a.delete_edges == b.delete_edges)


def catalogue_to_text(catalogue: Catalogue) -> str:
    lines = [f"{s.name}, {s.category}, {s.stock_items}, {s.metres:g}"
             for s in catalogue.sections]
    if catalogue.cyclic:
        lines.append("cyclic")
    return "\n".join(lines) + "\n"
