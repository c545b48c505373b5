"""Reference versions of the trade kernel, kept as the oracle tests read them.

``side_patch``, ``match_patches`` and ``spliced`` are the straightforward
forms of ``merging._side_patch``, ``localiser.match_patches`` and
``graph._spliced``: every carried edge remapped and ranked, every pair
within threshold read out of numpy one at a time, and every splice cut
sorted. ``commute`` is ``merging.commute`` built from them. ``scan_diff``
is ``patches.diff`` as it was before the product index: every item hash of
both graphs scanned, scoped or not, and the receiver probed through
``Graph.__contains__`` and ``Graph.has_edge``. The package's versions must
give the same results.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from expmarket.graph import Edge, Graph
from expmarket.ids import NodeId
from expmarket.localiser import LocaliserConfig, MatchPair, MatchSet
from expmarket.merging import Commutation, CommutationPolicy, ConvergentPatchPair, choose
from expmarket.patches import Inserts, Patch, build_patch

_REC = 32


def side_patch(side: Graph, carried: Inserts, drop_map: dict[NodeId, NodeId]) -> Patch:
    insert_nodes = [node for nid, node in carried.insert_nodes.items() if nid not in drop_map]
    delete_ids = {nid for nid in drop_map if nid in side}
    inserted = {n.id for n in insert_nodes}

    def present_after(nid: NodeId) -> bool:
        return (nid in side and nid not in delete_ids) or nid in inserted

    candidates: dict[tuple[NodeId, NodeId], list[Edge]] = {}

    def offer(e: Edge | None) -> None:
        if e is not None:
            cands = candidates.setdefault((e.src, e.dst), [])
            if e not in cands:
                cands.append(e)

    def remap(e: Edge) -> Edge | None:
        src = drop_map.get(e.src, e.src)
        dst = drop_map.get(e.dst, e.dst)
        if src == dst or not present_after(src) or not present_after(dst):
            return None
        return e if (src == e.src and dst == e.dst) else Edge(src, dst, e.pose)

    for e in carried.insert_edges:
        offer(remap(e))
    for nid in delete_ids:
        for e in side.in_edges(nid):
            offer(remap(e))
        for e in side.out_edges(nid):
            offer(remap(e))

    edge_inserts = []
    for (src, dst), cands in candidates.items():
        if side.has_edge(src, dst):
            continue
        edge_inserts.append(cands[0] if len(cands) == 1 else
                            min(cands, key=lambda e: (e not in carried.insert_edges,
                                                      e.content_bytes())))

    return build_patch(side, insert_nodes=insert_nodes, insert_edges=edge_inserts,
                       delete_ids=delete_ids)


def match_patches(left: Inserts, right: Inserts, cfg: LocaliserConfig) -> MatchSet:
    lnodes = sorted(left.insert_nodes.values(), key=lambda n: n.id)
    rnodes = sorted(right.insert_nodes.values(), key=lambda n: n.id)
    if not lnodes or not rnodes:
        return MatchSet()
    lm = np.array([n.descriptor for n in lnodes], dtype=np.float64)
    rm = np.array([n.descriptor for n in rnodes], dtype=np.float64)
    d2 = np.sum(lm * lm, axis=1)[:, None] + np.sum(rm * rm, axis=1)[None, :] - 2.0 * (lm @ rm.T)
    dists = np.sqrt(np.maximum(d2, 0.0))
    within = np.argwhere(dists <= cfg.tau_m)
    ranked = sorted(
        ((float(dists[i, j]), *sorted((lnodes[i].id, rnodes[j].id)), i, j) for i, j in within),
        key=lambda t: t[:3],
    )
    used_l: set[int] = set()
    used_r: set[int] = set()
    pairs = []
    for dist, _, _, i, j in ranked:
        if i in used_l or j in used_r:
            continue
        used_l.add(i)
        used_r.add(j)
        pairs.append(MatchPair(lnodes[i].id, rnodes[j].id, dist))
    return MatchSet(frozenset(pairs))


def commute(incoming: Inserts, outgoing: Inserts, policy: CommutationPolicy,
            left: Graph, right: Graph) -> ConvergentPatchPair:
    if policy.kind is Commutation.UNION:
        return ConvergentPatchPair(
            for_left=build_patch(left, insert_nodes=incoming.insert_nodes.values(),
                                 insert_edges=incoming.insert_edges),
            for_right=build_patch(right, insert_nodes=outgoing.insert_nodes.values(),
                                  insert_edges=outgoing.insert_edges))
    matches = match_patches(outgoing, incoming, policy.localiser)
    drops_left: dict[NodeId, NodeId] = {}
    drops_right: dict[NodeId, NodeId] = {}
    for pair in sorted(matches.pairs, key=lambda p: (p.left, p.right)):
        mine, theirs = outgoing.insert_nodes[pair.left], incoming.insert_nodes[pair.right]
        keep, drop = choose(mine, theirs, policy.choice)
        drops_left[drop.id] = keep.id
        keep, drop = choose(theirs, mine, policy.choice)
        drops_right[drop.id] = keep.id
    return ConvergentPatchPair(side_patch(left, incoming, drops_left),
                               side_patch(right, outgoing, drops_right),
                               matches, drops_left, drops_right)


def spliced(buf: bytes, dropped: Iterable[bytes], added: Iterable[bytes]) -> bytes:
    added, dropped = sorted(added), list(dropped)
    keys = np.array(added + dropped, dtype="S32")
    offsets = (np.searchsorted(np.frombuffer(buf, "S32"), keys) * _REC).tolist()
    cuts = list(zip(offsets, repeat(0), added))
    for at, h in zip(offsets[len(added):], dropped):
        if buf[at:at + _REC] != h:
            raise KeyError(h)
        cuts.append((at, _REC, h))
    cuts.sort()
    view = memoryview(buf)
    parts = []
    start = 0
    for at, skip, h in cuts:
        if at != start:
            parts.append(view[start:at])
        if not skip:
            parts.append(h)
        start = at + skip
    parts.append(view[start:])
    return b"".join(parts)


def scan_diff(mine: Graph, theirs: Graph, products: set[int] | None = None
              ) -> tuple[Inserts, Inserts]:
    def one_way(dst_graph: Graph, src_graph: Graph) -> Inserts:
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
        return Inserts({n.id: n for n in nodes}, frozenset(edges))

    return one_way(mine, theirs), one_way(theirs, mine)
