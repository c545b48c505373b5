"""Commutation of divergent patches and the pairwise trade merge.

Two policies: plain set union, and localiser-matched merging where closely
matching nodes across the divergent pair are resolved by a team-wide choice
policy. The winner survives on both sides; the loser is deleted where it
lives, with its neighbourhood rewired onto the winner so connectivity never
degrades. Both sides' convergent patches are derived from one symmetric
description of the outcome, so applying them yields equal content digests.

Choice policies must be symmetric functions of the two node payloads; LHS
and COIN exist as counterexamples for the test battery and are refused by
execute_trade unless explicitly allowed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .graph import Edge, Graph, Node
from .ids import NodeId, RobotId, id_text
from .localiser import LocaliserConfig, MatchCounter, MatchSet, match_patches
from .patches import Patch, Repository, build_patch, diff
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


def _side_patch(side: Graph, carried: Patch, drop_map: dict[NodeId, NodeId],
                faults: frozenset[str]) -> Patch:
    """One side's convergent patch from the symmetric merge description.

    ``carried`` is the diff patch headed for this side; ``drop_map`` sends
    every dropped node id (either side) to its keeper. Matched drops held
    here are deleted with their neighbourhood rewired; matched drops on the
    carried side are simply not inserted. Fault flags exist solely for the
    integrity battery.
    """
    no_delete = "no_delete" in faults
    no_reconnect = "no_reconnect" in faults
    insert_nodes = [node for nid, node in carried.insert_nodes.items()
                    if no_delete or nid not in drop_map]
    own_drops = {nid for nid in drop_map if nid in side}
    delete_ids = set() if no_delete else own_drops
    inserted = {n.id for n in insert_nodes}

    def present_after(nid: NodeId) -> bool:
        return (nid in side and nid not in delete_ids) or nid in inserted

    candidates: dict[tuple[NodeId, NodeId], list[Edge]] = {}

    def offer(e: Edge | None) -> None:
        if e is not None:
            candidates.setdefault((e.src, e.dst), []).append(e)

    def remap(e: Edge) -> Edge | None:
        src = drop_map.get(e.src, e.src)
        dst = drop_map.get(e.dst, e.dst)
        if no_reconnect and (src != e.src or dst != e.dst):
            return None
        if src == dst or not present_after(src) or not present_after(dst):
            return None
        # matched nodes represent the same place: the drop-to-keep transform
        # is the identity, so rewired edges keep their pose
        return e if (src == e.src and dst == e.dst) else Edge(src, dst, e.pose)

    for e in carried.insert_edges:
        if no_delete and present_after(e.src) and present_after(e.dst) and e.src != e.dst:
            offer(e)
        offer(remap(e))
    for nid in own_drops:
        for e in side.in_edges(nid):
            offer(remap(e))
        for e in side.out_edges(nid):
            offer(remap(e))

    edge_inserts = []
    for (src, dst), cands in candidates.items():
        if src in side and dst in side and src not in delete_ids and dst not in delete_ids \
                and side.has_edge(src, dst):
            continue  # survives as-is
        # the other side holds a carried edge as it is, so it beats rewired
        # ones; ties go to the smallest record
        edge_inserts.append(min(cands, key=lambda e: (e not in carried.insert_edges,
                                                      e.content_bytes())))

    return build_patch(side, insert_nodes=insert_nodes,
                       insert_edges=edge_inserts, delete_ids=delete_ids)


def commute(incoming: Patch, outgoing: Patch, policy: CommutationPolicy,
            left: Graph, right: Graph, counter: MatchCounter | None = None,
            _faults: frozenset[str] = frozenset()) -> ConvergentPatchPair:
    """Turn the divergent diff pair into per-side convergent patches.

    Under UNION the diff pair passes through verbatim. Under MATCH, the
    localiser pairs up closely matching content across the two patches, the
    choice policy picks each pair's survivor, and both sides' patches are
    derived from that one shared decision.
    """
    if policy.kind is Commutation.UNION:
        return ConvergentPatchPair(for_left=incoming, for_right=outgoing)

    matches = match_patches(outgoing, incoming, policy.localiser, counter)
    drops_left: dict[NodeId, NodeId] = {}
    drops_right: dict[NodeId, NodeId] = {}
    for pair in sorted(matches.pairs, key=lambda p: (p.left, p.right)):
        mine, theirs = outgoing.insert_nodes[pair.left], incoming.insert_nodes[pair.right]
        keep, drop = choose(mine, theirs, policy.choice)
        drops_left[drop.id] = keep.id
        keep, drop = choose(theirs, mine, policy.choice)
        drops_right[drop.id] = keep.id
    for_left = _side_patch(left, incoming, drops_left, _faults)
    for_right = _side_patch(right, outgoing, drops_right, _faults)
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
                  counter: MatchCounter | None = None, enforce: bool = True,
                  _faults: frozenset[str] = frozenset()) -> TradeOutcome:
    """A pairwise exchange: diff, commute, and commit each side's patch to
    ``left`` and ``right`` in place; the outcome holds those same two
    repositories. Empty patches are not recorded. Each patch is built
    against the graph it is committed to, so its input state matches.

    With no product scope the two repositories end in the same state
    (digest-checked). A product scope restricts the exchange to catalogue
    sections on the buyer's shopping list, converging those sections only.
    ``enforce=False`` skips the convergence and reconnection checks so
    verification harnesses can observe misbehaving policies instead of
    crashing on them. A failed check raises ``IntegrityViolation`` naming
    ``k``, the buyer and the seller.
    """
    if policy.kind is Commutation.MATCH and not policy.choice.is_pure() \
            and not policy.allow_asymmetric:
        raise NonSymmetricPolicy(f"{policy.choice.kind.value} is not team-symmetric")
    incoming, outgoing = diff(left.graph, right.graph, products=products)
    pair = commute(incoming, outgoing, policy, left.graph, right.graph,
                   counter=counter, _faults=_faults)
    check = enforce and not _faults
    if check:  # the neighbourhoods before the commits change them
        pre_left = {d: _neighbours(left.graph, d) for d in pair.drops_left if d in left.graph}
        pre_right = {d: _neighbours(right.graph, d) for d in pair.drops_right if d in right.graph}
    for repo, patch in ((left, pair.for_left), (right, pair.for_right)):
        if not patch.is_empty():
            repo.commit(patch)
    if check:
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
