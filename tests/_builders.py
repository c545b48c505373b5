"""Shared test builders: small graphs, chains, and randomized repositories."""

from __future__ import annotations

import random

from expmarket.graph import Edge, Graph, Node
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.patches import Inserts, Patch, build_patch, diff
from expmarket.pose import Pose


def mknode(gen: NodeIdGenerator, desc, **kw) -> Node:
    return Node(id=gen.next_id(), descriptor=tuple(float(v) for v in desc), **kw)


def chain_graph(gen: NodeIdGenerator, descriptors, spacing: float = 5.0,
                **node_kw) -> tuple[Graph, list[Node]]:
    nodes = [mknode(gen, d, **node_kw) for d in descriptors]
    g = Graph()
    for n in nodes:
        g.insert_node(n)
    for a, b in zip(nodes, nodes[1:]):
        g.insert_edge(Edge(a.id, b.id, Pose.from_translation(spacing)))
    return g, nodes


def chain_edges(nodes, spacing: float = 5.0) -> list[Edge]:
    return [Edge(a.id, b.id, Pose.from_translation(spacing))
            for a, b in zip(nodes, nodes[1:])]


def random_graph(seed: int, n_nodes: int, dim: int = 4,
                 edge_prob: float = 0.3) -> Graph:
    """Arbitrary DAG-ish graph with random descriptors and metadata."""
    rng = random.Random(derive_seed(seed, "random-graph"))
    gen = NodeIdGenerator(seed, 0)
    nodes = [mknode(gen, [rng.uniform(-100, 100) for _ in range(dim)],
                    inlier_count=rng.randrange(100),
                    fabmap_score=rng.random(),
                    path_memory=rng.randrange(5),
                    product=rng.randrange(4)) for _ in range(n_nodes)]
    g = Graph()
    for n in nodes:
        g.insert_node(n)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if rng.random() < edge_prob:
                g.insert_edge(Edge(a.id, b.id, Pose.from_translation(rng.uniform(1, 10))))
    return g


def random_insert_patch(base: Graph, seed: int, n_new: int, dim: int = 4) -> Patch:
    """Insert-only patch: a fresh chain, entry-linked to the base when possible."""
    rng = random.Random(derive_seed(seed, "patch"))
    gen = NodeIdGenerator(derive_seed(seed, "patch-ids"), 1)
    nodes = [mknode(gen, [rng.uniform(-100, 100) for _ in range(dim)],
                    inlier_count=rng.randrange(100),
                    fabmap_score=rng.random()) for _ in range(n_new)]
    edges = set(chain_edges(nodes))
    base_ids = sorted(base.node_ids())
    if base_ids and nodes:
        edges.add(Edge(rng.choice(base_ids), nodes[0].id, Pose.from_translation(5.0)))
    return build_patch(base, insert_nodes=nodes, insert_edges=edges)


def built(base: Graph, inserts: Inserts) -> Patch:
    """One direction of ``diff`` built into a patch against the graph it is
    headed for, as ``commute`` does under UNION."""
    return build_patch(base, insert_nodes=inserts.insert_nodes.values(),
                       insert_edges=inserts.insert_edges)


def diff_patches(mine: Graph, theirs: Graph, *args) -> tuple[Patch, Patch]:
    """``diff(mine, theirs, *args)`` with each direction built against its
    receiving graph."""
    incoming, outgoing = diff(mine, theirs, *args)
    return built(mine, incoming), built(theirs, outgoing)
