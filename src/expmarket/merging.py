"""Commutation of divergent patches and the pairwise trade merge.

Two policies: plain set union, and localiser-matched merging where closely
matching nodes across the divergent pair are resolved by a team-wide choice
policy. The winner survives on both sides; the loser is deleted where it
lives, with its neighbourhood rewired onto the winner so connectivity never
degrades. Both sides' convergent patches are derived from one symmetric
description of the outcome, so applying them yields equal content digests.

Choice policies must be symmetric functions of the two node payloads; LHS
and COIN exist as counterexamples for the test battery and are refused by
``CommutationPolicy.require_symmetric`` unless explicitly allowed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .graph import Edge, Graph, Node
from .ids import NodeId, RobotId, id_text
from .localiser import LocaliserConfig, MatchCounter, MatchSet, match_patches
from .patches import Inserts, Patch, Repository, build_patch, diff, patches_since_common
from .serialize import patch_wire_size


class NonScoringPolicy(Exception):
    """LHS/COIN have no value semantics."""


class NonSymmetricPolicy(Exception):
    """Asymmetric choice policies corrupt team-wide convergence."""


class IntegrityViolation(Exception):
    """A merge broke a structural guarantee (divergence or lost connectivity)."""


class Choice(enum.Enum):
    INLIERS = "inliers"
    FABMAP = "fabmap"
    PATH_MEMORY = "path_memory"
    LHS = "lhs"
    COIN = "coin"


PURE_CHOICES = frozenset({Choice.INLIERS, Choice.FABMAP, Choice.PATH_MEMORY})


@dataclass
class ChoicePolicy:
    kind: Choice
    rng: random.Random | None = None  # COIN only

    def is_pure(self) -> bool:
        return self.kind in PURE_CHOICES


class Commutation(enum.Enum):
    UNION = "union"
    MATCH = "match"


@dataclass
class CommutationPolicy:
    """Team-wide merge behavior; every agent in a run shares one value."""

    kind: Commutation = Commutation.UNION
    choice: ChoicePolicy = field(default_factory=lambda: ChoicePolicy(Choice.INLIERS))
    localiser: LocaliserConfig = field(default_factory=LocaliserConfig)
    allow_asymmetric: bool = False

    def require_symmetric(self) -> None:
        """Refuse a MATCH merge by an asymmetric choice policy unless allowed."""
        if self.kind is Commutation.MATCH and not self.choice.is_pure() \
                and not self.allow_asymmetric:
            raise NonSymmetricPolicy(f"{self.choice.kind.value} is not team-symmetric")


def gamma_score(node: Node, policy: ChoicePolicy) -> float:
    """The node's value under a pure choice policy (higher is better)."""
    if policy.kind is Choice.INLIERS:
        return float(node.inlier_count)
    if policy.kind is Choice.FABMAP:
        return float(node.fabmap_score)
    if policy.kind is Choice.PATH_MEMORY:
        return float(node.path_memory)
    raise NonScoringPolicy(f"{policy.kind.value} has no value semantics")


def choose(a: Node, b: Node, policy: ChoicePolicy) -> tuple[Node, Node]:
    """Pick (keep, drop) between two matched nodes.

    Pure policies keep the higher score, ties going to the smaller node id,
    so the result does not depend on argument order. LHS and COIN are the
    deliberately misbehaving policies used by the integrity harness.
    """
    if a.id == b.id:
        raise ValueError("choose() needs two distinct nodes")
    if policy.kind is Choice.LHS:
        return a, b
    if policy.kind is Choice.COIN:
        if policy.rng is None:
            raise ValueError("COIN policy needs a seeded stream")
        return (a, b) if policy.rng.random() < 0.5 else (b, a)
    sa, sb = gamma_score(a, policy), gamma_score(b, policy)
    if sa > sb or (sa == sb and a.id < b.id):
        return a, b
    return b, a


@dataclass(frozen=True)
class ConvergentPatchPair:
    """Per-side patches commuted from a divergent pair, plus what matched.

    Each side evaluates the choice policy with its own node as the first
    argument, the way two independent agents would; for pure policies the
    two drop maps coincide, which is exactly the symmetry the team needs.
    """

    for_left: Patch
    for_right: Patch
    matches: MatchSet = MatchSet()
    drops_left: dict = field(default_factory=dict, hash=False, compare=False)
    drops_right: dict = field(default_factory=dict, hash=False, compare=False)


def _side_patch(side: Graph, carried: Inserts, drop_map: dict[NodeId, NodeId]) -> Patch:
    """One side's convergent patch from the symmetric merge description.

    ``carried`` is the diff content headed for this side; ``drop_map`` sends
    every dropped node id (either side) to its keeper. Matched drops held
    here are deleted with their neighbourhood rewired; matched drops on the
    carried side are simply not inserted. A carried edge that touches no
    dropped node is inserted as it is: the diff carries only edges this side
    lacks, between nodes present after the merge. Only the edges that touch
    a drop are remapped onto keepers, and where several land on one node
    pair, one is chosen. The integrity battery derives its faulted patches
    from this one (``integrity.run_battery_trial``).
    """
    insert_nodes = [node for nid, node in carried.insert_nodes.items() if nid not in drop_map]
    delete_ids = {nid for nid in drop_map if nid in side}
    inserted = {n.id for n in insert_nodes}
    kept: list[Edge] = []
    touching: list[Edge] = []
    for e in carried.insert_edges:
        (touching if e.src in drop_map or e.dst in drop_map else kept).append(e)
    for nid in delete_ids:
        touching += side.in_edges(nid)
        touching += side.out_edges(nid)

    def present_after(nid: NodeId) -> bool:
        return (nid in side and nid not in delete_ids) or nid in inserted

    # the other side holds a carried edge as it is, so it beats rewired ones
    # on its node pair; rewired ones that meet go to the smallest record (an
    # edge between two own drops comes twice, as one record)
    taken = {(e.src, e.dst) for e in kept}
    rewired: dict[tuple[NodeId, NodeId], Edge] = {}
    for e in touching:
        # matched nodes represent the same place: the drop-to-keep transform
        # is the identity, so rewired edges keep their pose
        src, dst = drop_map.get(e.src, e.src), drop_map.get(e.dst, e.dst)
        if src == dst or (src, dst) in taken or side.has_edge(src, dst) \
                or not (present_after(src) and present_after(dst)):
            continue
        e = Edge(src, dst, e.pose)
        if (other := rewired.get((src, dst))) is None \
                or e.content_bytes() < other.content_bytes():
            rewired[src, dst] = e
    return build_patch(side, insert_nodes=insert_nodes,
                       insert_edges=kept + list(rewired.values()), delete_ids=delete_ids)


def commute(incoming: Inserts, outgoing: Inserts, policy: CommutationPolicy,
            left: Graph, right: Graph, counter: MatchCounter | None = None) -> ConvergentPatchPair:
    """Turn the divergent diff pair into per-side convergent patches, built
    against ``left`` and ``right``: the only patches of a trade, so each
    side's item delta is spliced once (``build_patch``). The right side is
    built second: when both reach one state, its spliced buffer is the last
    one hashed, and it takes that buffer and digest (``graph._hashed``), so
    a converging trade runs one SHA-256 pass.

    Under UNION each side's patch carries its diff content verbatim. Under
    MATCH, the localiser pairs up closely matching content across the two
    sides, the choice policy picks each pair's survivor, and both sides'
    patches are derived from that one shared decision. A MATCH merge that
    pairs nothing drops nothing, so it is the UNION merge.
    """
    matches = MatchSet()
    if policy.kind is Commutation.MATCH:
        matches = match_patches(outgoing, incoming, policy.localiser, counter)
    if not matches:
        return ConvergentPatchPair(
            for_left=build_patch(left, insert_nodes=incoming.insert_nodes.values(),
                                 insert_edges=incoming.insert_edges),
            for_right=build_patch(right, insert_nodes=outgoing.insert_nodes.values(),
                                  insert_edges=outgoing.insert_edges))
    drops_left: dict[NodeId, NodeId] = {}
    drops_right: dict[NodeId, NodeId] = {}
    for pair in sorted(matches.pairs, key=lambda p: (p.left, p.right)):
        mine, theirs = outgoing.insert_nodes[pair.left], incoming.insert_nodes[pair.right]
        keep, drop = choose(mine, theirs, policy.choice)
        drops_left[drop.id] = keep.id
        keep, drop = choose(theirs, mine, policy.choice)
        drops_right[drop.id] = keep.id
    for_left = _side_patch(left, incoming, drops_left)
    for_right = _side_patch(right, outgoing, drops_right)
    return ConvergentPatchPair(for_left=for_left, for_right=for_right,
                               matches=matches, drops_left=drops_left,
                               drops_right=drops_right)


@dataclass(frozen=True)
class TradeStats:
    """One pairwise exchange's footprint, serialized into the metrics CSV."""

    k: int
    buyer: RobotId
    seller: RobotId
    nodes_in: int
    nodes_deleted: int
    matches: int
    bytes_in: int  # wire size of the patch the buyer receives
    bytes_out: int  # wire size of the patch the seller receives

    @property
    def bytes(self) -> int:
        return self.bytes_in + self.bytes_out


def _neighbours(graph: Graph, node_id: NodeId) -> set[NodeId]:
    """Every node one edge away from ``node_id``, in either direction."""
    return {e.src for e in graph.in_edges(node_id)} | {e.dst for e in graph.out_edges(node_id)}


def _stranded_neighbour(neighbours: set[NodeId], post: Graph, drop_id: NodeId,
                        drop_map: dict[NodeId, NodeId]) -> NodeId | None:
    """A former neighbour of a dropped node not adjacent (1-hop) to its
    keeper in ``post``, or None when the whole neighbourhood was rewired."""
    keep_id = drop_map[drop_id]
    for nb in neighbours:
        nb = drop_map.get(nb, nb)
        if nb == keep_id or nb not in post:
            continue
        if not (post.has_edge(nb, keep_id) or post.has_edge(keep_id, nb)):
            return nb
    return None


def _check_reconnected(neighbourhoods: dict[NodeId, set[NodeId]], post: Graph,
                       drop_map: dict[NodeId, NodeId], where: str) -> None:
    """``neighbourhoods`` holds the pre-trade neighbour set of each dropped
    node that side held."""
    for drop_id, neighbours in neighbourhoods.items():
        nb = _stranded_neighbour(neighbours, post, drop_id, drop_map)
        if nb is not None:
            raise IntegrityViolation(f"{where}: neighbour {id_text(nb)} of dropped "
                                     f"{id_text(drop_id)} lost contact with keeper "
                                     f"{id_text(drop_map[drop_id])}")


@dataclass(frozen=True)
class TradeOutcome:
    left: Repository
    right: Repository
    stats: TradeStats
    pair: ConvergentPatchPair


def execute_trade(left: Repository, right: Repository, policy: CommutationPolicy,
                  *, products: set[int] | None = None, k: int = 0,
                  counter: MatchCounter | None = None, enforce: bool = True) -> TradeOutcome:
    """A pairwise exchange: diff, commute, and commit each side's patch to
    ``left`` and ``right`` in place; the outcome holds those same two
    repositories. Empty patches are not recorded. Each patch is built
    against the graph it is committed to, so its input state matches, and
    the commit adopts the hash buffer and digest its build spliced: one
    splice per side that changes, and one SHA-256 pass per trade that
    converges, as the second side reuses the first side's digest when their
    buffers are byte-equal (``commute``).

    Two repositories with equal digests hold the same content, so the trade
    between them is decided at once: two empty patches at that state, built
    directly, with no ``diff``, ``commute`` or ``build_patch``. Otherwise,
    with no product scope, the two end in the same state (digest-checked),
    and ``diff`` reads only each side's patches since the newest state both
    histories hold (``patches_since_common``), falling back to a scan of
    every item hash when there is none or when either side deleted anything
    since it. A product scope restricts the exchange to catalogue sections
    on the buyer's shopping list, converging those sections only, and keeps
    the scan.
    ``enforce=False`` skips the convergence and reconnection checks so the
    Monte Carlo sweep can count a misbehaving policy's divergences instead
    of crashing on them. A failed check raises ``IntegrityViolation`` naming
    ``k``, the buyer and the seller.
    """
    policy.require_symmetric()
    if (state := left.digest()) == right.digest():
        pair = ConvergentPatchPair(Patch(state, state, {}, {}), Patch(state, state, {}, {}))
    else:
        since = patches_since_common(left, right) if products is None else None
        incoming, outgoing = diff(left.graph, right.graph, products=products, since=since)
        pair = commute(incoming, outgoing, policy, left.graph, right.graph, counter=counter)
    if enforce:  # the neighbourhoods before the commits change them
        pre_left = {d: _neighbours(left.graph, d) for d in pair.drops_left if d in left.graph}
        pre_right = {d: _neighbours(right.graph, d) for d in pair.drops_right if d in right.graph}
    for repo, patch in ((left, pair.for_left), (right, pair.for_right)):
        if not patch.is_empty():
            repo.commit(patch)
    if enforce:
        where = f"trade k={k} buyer {left.robot} seller {right.robot}"
        if products is None and left.digest() != right.digest():
            raise IntegrityViolation(f"{where}: trade did not converge to a common state")
        _check_reconnected(pre_left, left.graph, pair.drops_left, where)
        _check_reconnected(pre_right, right.graph, pair.drops_right, where)
    stats = TradeStats(
        k=k,
        buyer=left.robot,
        seller=right.robot,
        nodes_in=len(pair.for_left.insert_nodes),
        nodes_deleted=len(pair.drops_left),
        matches=len(pair.matches),
        bytes_in=patch_wire_size(pair.for_left),
        bytes_out=patch_wire_size(pair.for_right),
    )
    return TradeOutcome(left, right, stats, pair)


def trade_merge(left: Repository, right: Repository, policy: CommutationPolicy,
                *, products: set[int] | None = None, k: int = 0,
                counter: MatchCounter | None = None,
                enforce: bool = True) -> tuple[Repository, Repository, TradeStats]:
    """Pairwise trade: the two repositories, advanced in place, and its stats."""
    out = execute_trade(left, right, policy, products=products, k=k,
                        counter=counter, enforce=enforce)
    return out.left, out.right, out.stats
