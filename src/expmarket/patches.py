"""Patch theory over experience maps.

A patch is a concrete, invertible transformation between two identified
repository states. Elements insert or delete a node together with its
out-edges; standalone edge records carry boundary insertions (edges whose
source is not itself part of the patch, e.g. reconnection edges created by
merges) and the edge deletions a node delete needs to be invertible.

Application is staged (edge deletes, node deletes, node inserts, edge
inserts) so an element set has no meaningful order: any enumeration yields
the same resulting content.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .graph import EMPTY_GRAPH_DIGEST, Edge, Graph, Node, StateDigest
from .ids import NodeId, RobotId, id_text


class PatchError(Exception):
    """Base class for patch application and construction failures."""


class StateMismatch(PatchError):
    """The graph is not in the state the patch expects."""


class MissingTarget(PatchError):
    """A delete names a node or edge the graph does not hold."""


class DanglingEdge(PatchError):
    """An edge insertion references an absent endpoint, or a node delete
    would strand incident edges."""


class DuplicateContent(PatchError):
    """An insertion collides with content already present."""


class CompositionError(PatchError):
    """The two patches cannot be combined into one well-formed patch."""


class PatchAction(enum.Enum):
    INSERT = 1
    DELETE = 0


@dataclass(frozen=True)
class PatchElement:
    """Atomic change: insert or delete one node and its out-edges."""

    action: PatchAction
    node: Node
    out_edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        for e in self.out_edges:
            if e.src != self.node.id:
                raise ValueError("payload edge does not originate at the element node")


@dataclass(frozen=True)
class Patch:
    """A set of elements transforming ``input_state`` into ``output_state``.

    ``edge_inserts`` and ``edge_deletes`` hold edges whose source node is not
    an element of this patch; payload edges of delete elements plus
    ``edge_deletes`` must cover every edge incident to a deleted node.
    """

    input_state: StateDigest
    output_state: StateDigest
    elements: frozenset[PatchElement]
    edge_inserts: frozenset[Edge] = frozenset()
    edge_deletes: frozenset[Edge] = frozenset()

    def __post_init__(self):
        seen: set[NodeId] = set()
        for el in self.elements:
            if el.node.id in seen:
                raise ValueError(f"node {id_text(el.node.id)} appears in two elements")
            seen.add(el.node.id)

    # -- views ------------------------------------------------------------

    def inserts(self) -> dict[NodeId, PatchElement]:
        return {el.node.id: el for el in self.elements if el.action is PatchAction.INSERT}

    def deletes(self) -> dict[NodeId, PatchElement]:
        return {el.node.id: el for el in self.elements if el.action is PatchAction.DELETE}

    def inserted_nodes(self) -> list[Node]:
        return [el.node for el in self.elements if el.action is PatchAction.INSERT]

    def flat_edge_inserts(self) -> set[Edge]:
        flat = set(self.edge_inserts)
        for el in self.elements:
            if el.action is PatchAction.INSERT:
                flat |= el.out_edges
        return flat

    def flat_edge_deletes(self) -> set[Edge]:
        flat = set(self.edge_deletes)
        for el in self.elements:
            if el.action is PatchAction.DELETE:
                flat |= el.out_edges
        return flat

    def is_empty(self) -> bool:
        return not self.elements and not self.edge_inserts and not self.edge_deletes

    def size(self) -> int:
        return len(self.elements) + len(self.edge_inserts) + len(self.edge_deletes)


def _remove_edges(graph: Graph, edges: Iterable[Edge]) -> None:
    for e in edges:
        if not graph.has_edge(e.src, e.dst):
            raise MissingTarget(f"edge {id_text(e.src)}->{id_text(e.dst)} absent")
        graph.remove_edge(e.src, e.dst)


def _apply_content(graph: Graph, patch: Patch) -> None:
    """Apply a patch's content changes in the canonical stage order."""
    _remove_edges(graph, patch.flat_edge_deletes())
    for nid, el in patch.deletes().items():
        if nid not in graph:
            raise MissingTarget(f"delete of absent node {id_text(nid)}")
        if graph.out_edges(nid) or graph.in_edges(nid):
            raise DanglingEdge(f"node {id_text(nid)} deleted while edges remain")
        graph.remove_node(nid)
    for el in patch.elements:
        if el.action is PatchAction.INSERT:
            if el.node.id in graph:
                raise DuplicateContent(f"insert of existing node {id_text(el.node.id)}")
            graph.insert_node(el.node)
    for e in patch.flat_edge_inserts():
        if e.src not in graph or e.dst not in graph:
            raise DanglingEdge(f"edge {id_text(e.src)}->{id_text(e.dst)} has an absent endpoint")
        if graph.has_edge(e.src, e.dst):
            raise DuplicateContent(f"edge {id_text(e.src)}->{id_text(e.dst)} already present")
        graph.insert_edge(e)


def apply_patch(graph: Graph, patch: Patch) -> Graph:
    """Apply ``patch`` to a graph whose digest equals the patch input state.

    The result takes over the graph's store (``Graph.copy``), and the patch
    is applied to it there: this costs O(|patch|) plus one SHA-256 over the
    result's item hashes. ``graph`` is left as a view that still reads as
    it did; when next read, it is rebuilt as a copy of the result's store
    with the result's undo journal undone on it.
    """
    if graph.digest() != patch.input_state:
        raise StateMismatch("graph digest does not match patch input state")
    result = graph.copy()
    _apply_content(result, patch)
    if result.digest() != patch.output_state:
        raise StateMismatch("applied patch did not reach its declared output state")
    return result


def invert_patch(patch: Patch) -> Patch:
    """The opposite transformation: endpoints swapped, every action flipped."""
    flipped = frozenset(
        PatchElement(
            PatchAction.DELETE if el.action is PatchAction.INSERT else PatchAction.INSERT,
            el.node,
            el.out_edges,
        )
        for el in patch.elements
    )
    return Patch(
        input_state=patch.output_state,
        output_state=patch.input_state,
        elements=flipped,
        edge_inserts=patch.edge_deletes,
        edge_deletes=patch.edge_inserts,
    )


def _regroup(
    input_state: StateDigest,
    output_state: StateDigest,
    node_inserts: Mapping[NodeId, Node],
    node_deletes: Mapping[NodeId, Node],
    edge_inserts: set[Edge],
    edge_deletes: set[Edge],
) -> Patch:
    """Build the canonical element form from flat insert/delete sets."""
    elements = []
    # group payload edges under their owning element
    by_src_ins: dict[NodeId, set[Edge]] = {}
    loose_ins: set[Edge] = set()
    for e in edge_inserts:
        if e.src in node_inserts:
            by_src_ins.setdefault(e.src, set()).add(e)
        else:
            loose_ins.add(e)
    by_src_del: dict[NodeId, set[Edge]] = {}
    loose_del: set[Edge] = set()
    for e in edge_deletes:
        if e.src in node_deletes:
            by_src_del.setdefault(e.src, set()).add(e)
        else:
            loose_del.add(e)
    for nid, node in node_inserts.items():
        elements.append(PatchElement(PatchAction.INSERT, node, frozenset(by_src_ins.get(nid, ()))))
    for nid, node in node_deletes.items():
        elements.append(PatchElement(PatchAction.DELETE, node, frozenset(by_src_del.get(nid, ()))))
    return Patch(
        input_state=input_state,
        output_state=output_state,
        elements=frozenset(elements),
        edge_inserts=frozenset(loose_ins),
        edge_deletes=frozenset(loose_del),
    )


def compose(first: Patch, second: Patch) -> Patch:
    """Combine two patches applied in sequence into one.

    Insert-then-delete of the same node cancels. Delete-then-reinsert of one
    node id is rejected: ids are random 128-bit values and are never reused,
    so this only arises from malformed inputs.
    """
    if first.output_state != second.input_state:
        raise StateMismatch("patches do not share a state")
    ins_a = {el.node.id: el.node for el in first.elements if el.action is PatchAction.INSERT}
    del_a = {el.node.id: el.node for el in first.elements if el.action is PatchAction.DELETE}
    ins_b = {el.node.id: el.node for el in second.elements if el.action is PatchAction.INSERT}
    del_b = {el.node.id: el.node for el in second.elements if el.action is PatchAction.DELETE}
    if set(del_a) & set(ins_b):
        raise CompositionError("node id deleted by first and re-inserted by second")

    node_inserts = {nid: n for nid, n in ins_a.items() if nid not in del_b}
    node_inserts.update(ins_b)
    node_deletes = dict(del_a)
    node_deletes.update({nid: n for nid, n in del_b.items() if nid not in ins_a})

    eins_a, edel_a = first.flat_edge_inserts(), first.flat_edge_deletes()
    eins_b, edel_b = second.flat_edge_inserts(), second.flat_edge_deletes()
    edge_inserts = (eins_a - edel_b) | eins_b
    edge_deletes = edel_a | (edel_b - eins_a)
    # drop edges attached to cancelled nodes
    cancelled = set(ins_a) & set(del_b)
    if cancelled:
        edge_inserts = {e for e in edge_inserts if e.src not in cancelled and e.dst not in cancelled}
        edge_deletes = {e for e in edge_deletes if e.src not in cancelled and e.dst not in cancelled}

    return _regroup(first.input_state, second.output_state,
                    node_inserts, node_deletes, edge_inserts, edge_deletes)


def patches_equal(a: Patch, b: Patch) -> bool:
    """Same transformation: equal insert/delete sets by id and full payload."""
    def key(p: Patch):
        return (
            {nid: el.node for nid, el in p.inserts().items()},
            {nid: el.node for nid, el in p.deletes().items()},
            p.flat_edge_inserts(),
            p.flat_edge_deletes(),
        )

    return key(a) == key(b)


def build_patch(
    base: Graph,
    *,
    insert_nodes: Sequence[Node] = (),
    insert_edges: Iterable[Edge] = (),
    delete_ids: Iterable[NodeId] = (),
    delete_edges: Iterable[Edge] = (),
) -> Patch:
    """Construct a digest-correct patch against ``base``.

    Delete elements take their payload (node record and out-edges) from the
    base graph; in-edges of deleted nodes are collected into the patch's edge
    deletes automatically, so the result is always invertible.

    The output state is the base digest with the patch's item delta spliced
    in (``Graph.digest_after``); nothing is applied here. A deleted edge the
    base lacks raises ``MissingTarget``. Other malformed content (a dangling
    or duplicate insertion) is refused by ``apply_patch`` at commit, with the
    same ``PatchError``.
    """
    delete_ids = set(delete_ids)
    node_deletes = {nid: base.node(nid) for nid in delete_ids}
    edge_deletes = set(delete_edges)
    for nid in delete_ids:
        for e in base.out_edges(nid):
            edge_deletes.add(e)
        for e in base.in_edges(nid):
            if e.src not in delete_ids:  # otherwise carried as that node's payload
                edge_deletes.add(e)
    node_inserts = {n.id: n for n in insert_nodes}
    edge_inserts = set(insert_edges)
    if not (node_inserts or node_deletes or edge_inserts or edge_deletes):
        return Patch(base.digest(), base.digest(), frozenset())  # the state stays put
    dropped = [n.item_hash for n in node_deletes.values()]
    dropped += [e.item_hash for e in edge_deletes]
    added = [n.item_hash for n in node_inserts.values()]
    added += [e.item_hash for e in edge_inserts]
    try:
        output = base.digest_after(dropped, added)
    except KeyError:
        raise MissingTarget("a deleted edge is absent from the base graph") from None
    return _regroup(base.digest(), output,
                    node_inserts, node_deletes, edge_inserts, edge_deletes)


def diff(mine: Graph, theirs: Graph,
         products: set[int] | None = None) -> tuple[Patch, Patch]:
    """The divergent insert pair: what I lack of theirs, what they lack of mine.

    ``incoming`` applied to ``mine`` and ``outgoing`` applied to ``theirs``
    both reach the union state. Besides each new node's own out-edges, edges
    from shared nodes into the transferred content travel as standalone edge
    inserts (they belong to no transferred element). A product scope narrows
    the transfer to nodes labelled with those catalogue sections; edge
    payloads are always restricted to endpoints that survive on the
    receiving side, so nothing ever dangles.
    """

    def one_way(dst_graph: Graph, src_graph: Graph) -> Patch:
        # every item the patch carries is one whose hash dst_graph lacks
        cand_nodes, cand_edges = src_graph.items_missing_from(dst_graph)
        nodes = [n for n in cand_nodes
                 if n.id not in dst_graph and (products is None or n.product in products)]
        new_ids = {n.id for n in nodes}
        edges = {
            e
            for e in cand_edges
            if (e.dst in dst_graph or e.dst in new_ids)
            and (e.src in new_ids
                 or (e.src in dst_graph and not dst_graph.has_edge(e.src, e.dst)))
        }
        return build_patch(dst_graph, insert_nodes=nodes, insert_edges=edges)

    return one_way(mine, theirs), one_way(theirs, mine)


@dataclass
class History:
    """Linear chain of patches from an origin state."""

    origin: StateDigest = EMPTY_GRAPH_DIGEST
    patches: list[Patch] = field(default_factory=list)

    def append(self, patch: Patch) -> None:
        expected = self.patches[-1].output_state if self.patches else self.origin
        if patch.input_state != expected:
            raise StateMismatch("patch does not extend this history")
        self.patches.append(patch)

    def replay(self) -> Graph:
        """Rebuild the working copy from the empty graph."""
        if self.origin != EMPTY_GRAPH_DIGEST:
            raise StateMismatch("history does not start at the empty graph")
        g = Graph()
        for p in self.patches:
            g = apply_patch(g, p)
        return g

    def copy(self) -> "History":
        return History(self.origin, list(self.patches))

    def __len__(self) -> int:
        return len(self.patches)


@dataclass
class Repository:
    """An agent's versioned map: the working graph plus its linear history.

    ``commit`` and ``committed`` apply through ``apply_patch``, and ``copy``
    copies the graph, so each hands the graph's store on in O(1) and leaves
    the old graph reading as it did. A graph may be shared by several
    repositories: none of them ever changes what another one reads.
    """

    robot: RobotId
    graph: Graph = field(default_factory=Graph)
    history: History = field(default_factory=History)

    def __post_init__(self):
        # a fresh repo constructed around an existing graph starts its
        # history at that state
        if not self.history.patches and self.history.origin != self.graph.digest():
            self.history = History(origin=self.graph.digest())

    def digest(self) -> StateDigest:
        return self.graph.digest()

    def commit(self, patch: Patch) -> None:
        self.graph = apply_patch(self.graph, patch)
        self.history.append(patch)

    def committed(self, patch: Patch) -> "Repository":
        """A new repository with ``patch`` committed; this one is unchanged."""
        graph = apply_patch(self.graph, patch)
        history = self.history.copy()
        history.append(patch)
        return Repository(self.robot, graph, history)

    def copy(self) -> "Repository":
        return Repository(self.robot, self.graph.copy(), self.history.copy())
