"""Experience graph: neighbourhoods, components, referential integrity."""

import random

import pytest

from expmarket.graph import (
    DanglingEdge,
    DuplicateContent,
    Edge,
    Graph,
    MissingTarget,
    UnknownNode,
    compute_digest_from_scratch,
    neighbourhood,
)
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.pose import Pose

from _builders import chain_graph, mknode, random_graph
from _oracles import connected_components, export_text


def test_neighbourhood_chain_one_hop():
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[0.0], [1.0], [2.0]])
    assert neighbourhood(g, [nodes[0].id], 1) == {nodes[0].id, nodes[1].id}


def test_neighbourhood_zero_depth():
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[0.0], [1.0]])
    assert neighbourhood(g, [nodes[1].id], 0) == {nodes[1].id}


def test_neighbourhood_unknown_seed():
    g, _ = chain_graph(NodeIdGenerator(0, 0), [[0.0]])
    stranger = NodeIdGenerator(9, 9).next_id()
    with pytest.raises(UnknownNode):
        neighbourhood(g, [stranger], 1)
    with pytest.raises(UnknownNode):  # among seeds the graph holds
        neighbourhood(g, [next(iter(g.node_ids())), stranger], 1)


def _bfs_hops(graph: Graph, seed):
    """Oracle: hop distance by plain breadth-first search, both directions."""
    dist = {seed: 0}
    frontier = [seed]
    while frontier:
        nxt = []
        for nid in frontier:
            around = {e.dst for e in graph.out_edges(nid)} | \
                     {e.src for e in graph.in_edges(nid)}
            for other in around:
                if other not in dist:
                    dist[other] = dist[nid] + 1
                    nxt.append(other)
        frontier = nxt
    return dist


def test_neighbourhood_matches_bfs_oracle():
    """One seed, or several (repeats allowed): the union of the seeds' balls."""
    for case in range(30):
        g = random_graph(case, 14, edge_prob=0.15)
        rng = random.Random(derive_seed("nbhd", case))
        depth = rng.randrange(0, 4)
        for count in (1, 2, 3, 5):
            seeds = rng.choices(sorted(g.node_ids()), k=count)
            expected = set()
            for seed in seeds:
                expected |= {nid for nid, d in _bfs_hops(g, seed).items() if d <= depth}
            assert neighbourhood(g, seeds, depth) == expected
    assert neighbourhood(g, [], 2) == set()


def test_components_simple():
    gen = NodeIdGenerator(0, 0)
    a, b, c = (mknode(gen, [float(i)]) for i in range(3))
    g = Graph()
    for n in (a, b, c):
        g.insert_node(n)
    g.insert_edge(Edge(a.id, b.id, Pose.identity()))
    parts = {frozenset(p) for p in connected_components(g)}
    assert parts == {frozenset({a.id, b.id}), frozenset({c.id})}


def test_components_empty_graph():
    assert connected_components(Graph()) == []


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


def test_components_match_union_find_oracle():
    for case in range(25):
        g = random_graph(case + 100, 16, edge_prob=0.12)
        uf = _UnionFind(g.node_ids())
        for e in g.edges():
            uf.union(e.src, e.dst)
        oracle = {}
        for nid in g.node_ids():
            oracle.setdefault(uf.find(nid), set()).add(nid)
        assert {frozenset(p) for p in connected_components(g)} == \
            {frozenset(p) for p in oracle.values()}


def test_referential_integrity_enforced():
    gen = NodeIdGenerator(0, 0)
    a = mknode(gen, [0.0])
    b = mknode(gen, [1.0])
    g = Graph()
    g.insert_node(a)
    with pytest.raises(ValueError):
        g.insert_edge(Edge(a.id, b.id, Pose.identity()))
    g.insert_node(b)
    g.insert_edge(Edge(a.id, b.id, Pose.identity()))
    with pytest.raises(ValueError):
        g.remove_node(a.id)  # edges still attached
    # each refusal has its type (a ``KeyError`` for an absent target, a
    # ``ValueError`` for dangling or duplicate content) and changes nothing
    stranger = mknode(gen, [2.0])
    refusals = [
        (DanglingEdge, ValueError, lambda: g.insert_edge(Edge(a.id, stranger.id, Pose.identity()))),
        (DanglingEdge, ValueError, lambda: g.insert_edge(Edge(stranger.id, a.id, Pose.identity()))),
        (DanglingEdge, ValueError, lambda: g.remove_node(a.id)),  # edges still attached
        (DanglingEdge, ValueError, lambda: g.remove_node(b.id)),
        (DuplicateContent, ValueError, lambda: g.insert_node(a)),
        (DuplicateContent, ValueError,
         lambda: g.insert_edge(Edge(a.id, b.id, Pose.from_translation(1.0)))),
        (MissingTarget, KeyError, lambda: g.remove_edge(b.id, a.id)),
        (MissingTarget, KeyError, lambda: g.remove_edge(stranger.id, a.id)),
        (MissingTarget, KeyError, lambda: g.remove_node(stranger.id)),
    ]
    digest, text = g.digest(), export_text(g)
    for typed, base, call in refusals:
        with pytest.raises(typed) as caught:
            call()
        assert isinstance(caught.value, base)
        assert g.digest() == digest == compute_digest_from_scratch(g)
        assert export_text(g) == text
    # the absent-target message is shown as given, not quoted as a dict key
    with pytest.raises(MissingTarget, match="^delete of absent node "):
        g.remove_node(stranger.id)
    g.remove_edge(a.id, b.id)
    with pytest.raises(MissingTarget):  # gone now
        g.remove_edge(a.id, b.id)
    g.remove_node(a.id)
    assert a.id not in g
    with pytest.raises(MissingTarget):
        g.remove_node(a.id)


def test_export_text_lists_every_item():
    g = random_graph(5, 6, edge_prob=0.4)
    text = export_text(g)
    lines = [l for l in text.splitlines() if l]
    assert len(lines) == len(g) + g.edge_count()
    assert all(l.startswith(("node\t", "edge\t")) for l in lines)
    # deterministic: same content, same bytes
    assert export_text(g.copy()) == text


def test_an_edge_keeps_the_dataclass_hash():
    """``Edge`` caches ``hash((src, dst, pose))``, the value its dataclass
    would give, so sets of edges keep their iteration order."""
    g = random_graph(4, 12, edge_prob=0.4)
    for e in g.edges():
        fresh = Edge(e.src, e.dst, e.pose)
        assert hash(fresh) == hash((e.src, e.dst, e.pose))
        assert vars(fresh)["_hash"] == hash(fresh)  # kept on the instance
        assert fresh == e
