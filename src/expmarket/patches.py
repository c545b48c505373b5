"""Patch theory over experience maps.

A patch is a concrete, invertible transformation between two identified
repository states, held as four flat collections: the nodes it inserts,
the nodes it deletes, the edges it inserts and the edges it deletes. The
paper's elements (a node together with its out-edges) exist only on the
wire, where ``serialize`` groups each edge under the node it starts at.

Application is staged (edge deletes, node deletes, node inserts, edge
inserts), so the order of each collection has no meaning: any enumeration
yields the same resulting content. The graph refuses content that does not
fit it, with the typed errors of ``graph``; this layer adds one check of its
own: ``build_patch`` refuses a self-loop before it hashes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .graph import (EMPTY_GRAPH_DIGEST, Edge, Graph, MissingTarget, Node, PatchError,
                    SelfLoop, StateDigest)
from .ids import NodeId, RobotId, id_text


class StateMismatch(PatchError):
    """The graph is not in the state the patch expects."""


class CompositionError(PatchError):
    """The two patches cannot be combined into one well-formed patch."""


@dataclass(frozen=True)
class Patch:
    """The nodes and edges that transform ``input_state`` into ``output_state``.

    ``insert_nodes`` and ``delete_nodes`` map node ids to node records in
    the order the patch was built; treat them as read-only. The edge sets
    hold every inserted and every deleted edge, wherever its endpoints lie,
    and the deleted edges must cover every edge incident to a deleted node.
    """

    input_state: StateDigest
    output_state: StateDigest
    insert_nodes: dict[NodeId, Node]
    delete_nodes: dict[NodeId, Node]
    insert_edges: frozenset[Edge] = frozenset()
    delete_edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        if self.insert_nodes and self.delete_nodes:
            both = self.insert_nodes.keys() & self.delete_nodes.keys()
            if both:
                raise ValueError(f"node {id_text(min(both))} is both inserted and deleted")

    def is_empty(self) -> bool:
        return not (self.insert_nodes or self.delete_nodes
                    or self.insert_edges or self.delete_edges)


class Inserts(NamedTuple):
    """What one side of a trade lacks of the other (``diff``): the content
    of an insert-only patch, not built against any state, so nothing is
    hashed. ``build_patch`` makes it a patch, as ``Patch`` fields of the
    same names: ``insert_nodes`` in candidate order, and ``insert_edges``.
    Treat both as read-only, as a patch's."""

    insert_nodes: dict[NodeId, Node]
    insert_edges: frozenset[Edge]

    def is_empty(self) -> bool:
        return not (self.insert_nodes or self.insert_edges)


_NOTHING = Inserts({}, frozenset())  # shared: its dict is never changed


def _apply_content(graph: Graph, patch: Patch) -> None:
    """Apply a patch's content in stage order; the graph refuses what does not fit."""
    for e in patch.delete_edges:
        graph.remove_edge(e.src, e.dst)
    for nid in patch.delete_nodes:
        graph.remove_node(nid)
    for node in patch.insert_nodes.values():
        graph.insert_node(node)
    for e in patch.insert_edges:
        graph.insert_edge(e)


def _apply_in_place(graph: Graph, patch: Patch) -> None:
    """Apply ``patch`` to ``graph`` itself, checking the states on both sides.

    A wrong input state is refused before anything changes. Content the
    graph cannot take (a missing target, a dangling or duplicate insertion,
    a self-loop) or a wrong output state is found only after the first
    changes, and leaves the graph changed. No caller in the package commits
    such a patch.
    """
    if graph.digest() != patch.input_state:
        raise StateMismatch("graph digest does not match patch input state")
    _apply_content(graph, patch)
    if graph.digest() != patch.output_state:
        raise StateMismatch("applied patch did not reach its declared output state")


def apply_patch(graph: Graph, patch: Patch) -> Graph:
    """A copy of ``graph`` with ``patch`` applied; ``graph`` is not changed.

    The patch's input state must be the graph's digest. This costs one
    ``Graph.copy`` plus O(|patch|), and one splice and one SHA-256 over the
    result's item hashes unless the patch's item delta is the one
    ``build_patch`` last spliced against this graph (``Graph.digest_after``),
    whose buffer and digest the result then adopts as they are. The output
    state is checked against the result's digest either way; content the
    graph refuses raises its error. ``Repository.commit`` commits in place.
    """
    result = graph.copy()
    _apply_in_place(result, patch)
    return result


def invert_patch(patch: Patch) -> Patch:
    """The opposite transformation: endpoints and inserts/deletes swapped."""
    return Patch(patch.output_state, patch.input_state, patch.delete_nodes,
                 patch.insert_nodes, patch.delete_edges, patch.insert_edges)


def compose(first: Patch, second: Patch) -> Patch:
    """Combine two patches applied in sequence into one.

    Insert-then-delete of the same node cancels. Delete-then-reinsert of one
    node id is rejected: ids are random 128-bit values and are never reused,
    so this only arises from malformed inputs.
    """
    if first.output_state != second.input_state:
        raise StateMismatch("patches do not share a state")
    ins_a, del_a = first.insert_nodes, first.delete_nodes
    ins_b, del_b = second.insert_nodes, second.delete_nodes
    if not del_a.keys().isdisjoint(ins_b):
        raise CompositionError("node id deleted by first and re-inserted by second")

    node_inserts = {nid: n for nid, n in ins_a.items() if nid not in del_b}
    node_inserts.update(ins_b)
    node_deletes = dict(del_a)
    node_deletes.update({nid: n for nid, n in del_b.items() if nid not in ins_a})

    edge_inserts = (first.insert_edges - second.delete_edges) | second.insert_edges
    edge_deletes = first.delete_edges | (second.delete_edges - first.insert_edges)
    # drop edges attached to cancelled nodes
    cancelled = ins_a.keys() & del_b.keys()
    if cancelled:
        edge_inserts = frozenset(e for e in edge_inserts
                                 if e.src not in cancelled and e.dst not in cancelled)
        edge_deletes = frozenset(e for e in edge_deletes
                                 if e.src not in cancelled and e.dst not in cancelled)

    return Patch(first.input_state, second.output_state,
                 node_inserts, node_deletes, edge_inserts, edge_deletes)


def build_patch(
    base: Graph,
    *,
    insert_nodes: Sequence[Node] = (),
    insert_edges: Iterable[Edge] = (),
    delete_ids: Iterable[NodeId] = (),
    delete_edges: Iterable[Edge] = (),
) -> Patch:
    """Construct a digest-correct patch against ``base``.

    Deleted nodes take their records from the base graph, and every edge
    incident to one joins the deleted edges, so the result is always
    invertible.

    The output state is the base digest with the patch's item delta spliced
    in (``Graph.digest_after``); nothing is applied here, and the base keeps
    the spliced buffer for the commit of this patch. When that buffer equals
    the last one hashed, as on the second side of a converging trade, its
    digest is taken rather than hashed again. An inserted self-loop raises
    ``SelfLoop`` before anything is hashed, and a deleted node or edge the
    base lacks raises ``MissingTarget``. Other malformed content (a dangling
    or duplicate insertion) is refused by the graph at commit, with its
    ``DanglingEdge`` or ``DuplicateContent``.
    """
    edge_inserts = frozenset(insert_edges)
    for e in edge_inserts:
        if e.src == e.dst:
            raise SelfLoop(f"edge {id_text(e.src)} is a self-loop")
    input_state = base.digest()  # first hash, so that the memo keeps the built buffer
    try:
        node_deletes = {nid: base.node(nid) for nid in delete_ids}
    except KeyError as err:
        raise MissingTarget(f"delete of absent node {id_text(err.args[0])}") from None
    edge_deletes = set(delete_edges)
    for nid in node_deletes:
        edge_deletes.update(base.out_edges(nid))
        edge_deletes.update(base.in_edges(nid))
    node_inserts = {n.id: n for n in insert_nodes}
    if not (node_inserts or node_deletes or edge_inserts or edge_deletes):  # the state stays put
        return Patch(input_state, input_state, node_inserts, node_deletes)
    dropped = [n.item_hash for n in node_deletes.values()]
    dropped += [e.item_hash for e in edge_deletes]
    added = [n.item_hash for n in node_inserts.values()]
    added += [e.item_hash for e in edge_inserts]
    try:
        output = base.digest_after(dropped, added)
    except KeyError:
        raise MissingTarget("a deleted edge is absent from the base graph") from None
    return Patch(input_state, output, node_inserts, node_deletes,
                 edge_inserts, frozenset(edge_deletes))


def diff(mine: Graph, theirs: Graph, products: set[int] | None = None,
         since: tuple[Sequence[Patch], Sequence[Patch]] | None = None) -> tuple[Inserts, Inserts]:
    """The divergent insert pair: what I lack of theirs, what they lack of mine.

    Each direction is content only (``Inserts``) and nothing is hashed:
    ``merging.commute`` builds the patches that are committed. ``incoming``
    built against and applied to ``mine``, and ``outgoing`` built against
    and applied to ``theirs``, both reach the union state. Besides each new
    node's own out-edges, the edges from shared nodes into the transferred
    content are inserted too. A product scope narrows the transfer to nodes
    labelled with those catalogue sections; inserted edges are always
    restricted to endpoints that survive on the receiving side, so nothing
    ever dangles.

    The candidates are the items one side holds and the other lacks. With
    ``since`` (my patches and their patches since a state S both graphs
    held, all insert-only, as ``patches_since_common`` finds them), only
    what each side inserted since S is tested, in O(|patches|): B∖A ⊆
    (B∖S) ∪ (S∖A), and S∖A is empty when A deleted nothing since S. With
    a product scope and no ``since``, the candidate nodes are the scope's
    nodes the receiver lacks, read from the sender's product index
    (``Graph.product_nodes_missing_from``), and only the edge hashes are
    scanned: an edge between two nodes the receiver already holds may be
    carried under any scope, so the scope's nodes do not find every edge.
    Otherwise every item hash is scanned (``Graph.items_missing_from``).
    Each gives the candidates in the source graph's insertion order, which
    is the order its patches since S were applied in.
    """

    def one_way(dst_graph: Graph, src_graph: Graph, inserted: Sequence[Patch] | None) -> Inserts:
        # every item carried is one whose hash dst_graph lacks
        if inserted is not None:
            cand_nodes, cand_edges = src_graph.listed_missing_from(
                dst_graph, chain.from_iterable(p.insert_nodes.values() for p in inserted),
                chain.from_iterable(p.insert_edges for p in inserted))
        elif products is not None:
            cand_nodes = src_graph.product_nodes_missing_from(dst_graph, products)
            cand_edges = src_graph.edges_missing_from(dst_graph)
        else:
            cand_nodes, cand_edges = src_graph.items_missing_from(dst_graph)
        if not (cand_nodes or cand_edges):
            return _NOTHING  # a no-op trade's side: no filters, no new objects
        held, held_out = dst_graph._nodes, dst_graph._out
        nodes = [n for n in cand_nodes
                 if n.id not in held and (products is None or n.product in products)]
        new_ids = {n.id for n in nodes}
        edges = {
            e
            for e in cand_edges
            if (e.dst in held or e.dst in new_ids)
            and (e.src in new_ids or (e.src in held and e.dst not in held_out[e.src]))
        }
        return Inserts({n.id: n for n in nodes}, frozenset(edges))

    mine_since, theirs_since = since or (None, None)
    return one_way(mine, theirs, theirs_since), one_way(theirs, mine, mine_since)


@dataclass
class History:
    """Linear chain of patches from an origin state.

    ``positions`` maps each state the chain passes through to its newest
    position: the origin is 0, and the state after ``patches[i]`` is
    ``i + 1``. ``append`` keeps it up to date and ``copy`` copies it, so
    ``patches_since_common`` looks a state up in O(1).
    """

    origin: StateDigest = EMPTY_GRAPH_DIGEST
    patches: list[Patch] = field(default_factory=list)
    positions: dict[StateDigest, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.positions = {self.origin: 0}
        for i, patch in enumerate(self.patches, 1):
            self.positions[patch.output_state] = i

    def state_at(self, position: int) -> StateDigest:
        return self.patches[position - 1].output_state if position else self.origin

    def append(self, patch: Patch) -> None:
        if patch.input_state != self.state_at(len(self.patches)):
            raise StateMismatch("patch does not extend this history")
        self.patches.append(patch)
        self.positions[patch.output_state] = len(self.patches)

    def replay(self) -> Graph:
        """Rebuild the working copy from the empty graph."""
        if self.origin != EMPTY_GRAPH_DIGEST:
            raise StateMismatch("history does not start at the empty graph")
        g = Graph()
        for p in self.patches:
            _apply_in_place(g, p)
        return g

    def copy(self) -> "History":
        h = History(self.origin)
        h.patches, h.positions = list(self.patches), self.positions.copy()
        return h

    def __len__(self) -> int:
        return len(self.patches)


@dataclass
class Repository:
    """An agent's versioned map: the working graph plus its linear history.

    The repository owns its graph: ``commit`` (and so a trade) changes it in
    place. A graph passed in is copied first, so the caller's graph never
    changes, even when several repositories are built from it. A commit is
    refused before any change when the patch's input state is not the
    repository's state. A patch whose content does not fit this graph can
    fail after its first changes (``_apply_in_place``); the repository is
    then unusable.
    """

    robot: RobotId
    graph: Graph = field(default_factory=Graph)
    history: History = field(default_factory=History)

    def __post_init__(self):
        self.graph = self.graph.copy()
        # a fresh repo constructed around an existing graph starts its
        # history at that state
        if not self.history.patches and self.history.origin != self.graph.digest():
            self.history = History(origin=self.graph.digest())

    def digest(self) -> StateDigest:
        return self.graph.digest()

    def commit(self, patch: Patch) -> None:
        _apply_in_place(self.graph, patch)
        self.history.append(patch)

    def copy(self) -> "Repository":
        return Repository(self.robot, self.graph, self.history.copy())


def _deletes(patch: Patch) -> bool:
    return bool(patch.delete_nodes or patch.delete_edges)


def patches_since_common(mine: Repository, theirs: Repository
                         ) -> tuple[list[Patch], list[Patch]] | None:
    """Each side's patches since the newest state both histories hold, as
    ``diff``'s ``since``; None when ``diff`` must scan instead.

    The walk goes back from the tip of ``theirs``' history to the first
    state ``mine``'s history holds. It gives up, and None is returned, when
    no such state exists or when a patch of either side since it deletes a
    node or an edge. Each step back passes a patch that inserts what the
    scan would read too, so the walk costs no more than the scan. A graph
    that is not in its history's tip state, after a commit that failed part
    way, also gives None.
    """
    a, b = mine.history, theirs.history
    if a.state_at(len(a)) != mine.digest() or b.state_at(len(b)) != theirs.digest():
        return None
    i = len(b)
    while (at := a.positions.get(b.state_at(i))) is None:
        if i == 0 or _deletes(b.patches[i - 1]):
            return None
        i -= 1
    if any(map(_deletes, a.patches[at:])):
        return None
    return a.patches[at:], b.patches[i:]
