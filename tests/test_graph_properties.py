"""Property tests: maintained item hashes, copy-on-write copies, hash-indexed diff."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket import graph as graph_module
from expmarket.graph import Edge, Graph, compute_digest_from_scratch
from expmarket.ids import NodeIdGenerator
from expmarket.patches import apply_patch, build_patch, diff, patches_equal
from expmarket.pose import Pose
from expmarket.serialize import patch_to_bytes

from _builders import mknode, random_graph

# -- a graph and its copies under random mutation -----------------------------


class _Model:
    """Plain-dict mirror of one graph: node records and out-edges, in order."""

    def __init__(self, nodes=None, out=None):
        self.nodes = dict(nodes or {})
        self.out = {k: dict(v) for k, v in (out or {}).items()}

    def copy(self) -> "_Model":
        return _Model(self.nodes, self.out)

    def edges(self) -> list[Edge]:
        return [e for out in self.out.values() for e in out.values()]


def _check(g: Graph, model: _Model) -> None:
    assert list(g.nodes()) == list(model.nodes.values())
    assert list(g.edges()) == model.edges()
    assert g.edge_count() == len(model.edges())
    for nid in model.nodes:
        assert set(g.in_edges(nid)) == {out[nid] for out in model.out.values() if nid in out}
    assert g.digest() == compute_digest_from_scratch(g)


def _mutate(g: Graph, model: _Model, op: int, rng: random.Random, gen) -> None:
    ids = list(model.nodes)
    if op == 0 or not ids:
        node = mknode(gen, [rng.uniform(-5, 5) for _ in range(rng.randrange(3))],
                      inlier_count=rng.randrange(9), product=rng.randrange(3))
        g.insert_node(node)
        model.nodes[node.id] = node
        model.out[node.id] = {}
    elif op == 1:
        # a node and every edge touching it
        nid = rng.choice(ids)
        for src, out in model.out.items():
            if nid in out:
                g.remove_edge(src, nid)
                del out[nid]
        for dst in list(model.out[nid]):
            g.remove_edge(nid, dst)
        del model.out[nid]
        g.remove_node(nid)
        del model.nodes[nid]
    elif op == 2:
        src, dst = rng.choice(ids), rng.choice(ids)
        if src != dst and dst not in model.out[src]:
            edge = Edge(src, dst, Pose.from_translation(rng.uniform(0, 9)))
            g.insert_edge(edge)
            model.out[src][dst] = edge
    elif op == 3:
        edges = model.edges()
        if edges:
            e = rng.choice(edges)
            assert g.remove_edge(e.src, e.dst) == e
            del model.out[e.src][e.dst]
    elif op == 4:
        nid = rng.choice(ids)
        g.bump_path_memory(nid)
        model.nodes[nid] = g.node(nid)
    else:
        g.digest()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)), max_size=80),
       bisect_limit=st.sampled_from([0, 2, 256]))
def test_copies_stay_independent_and_digests_stay_exact(seed, ops, bisect_limit):
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
    saved = graph_module._BISECT_LIMIT
    graph_module._BISECT_LIMIT = bisect_limit
    try:
        graphs, models = [Graph()], [_Model()]
        for which, op in ops:
            i = which % len(graphs)
            if op >= 6:
                graphs.append(graphs[i].copy())
                models.append(models[i].copy())
            else:
                _mutate(graphs[i], models[i], op, rng, gen)
            _check(graphs[i], models[i])
        for g, model in zip(graphs, models):
            _check(g, model)
    finally:
        graph_module._BISECT_LIMIT = saved


def test_bulk_build_matches_scratch_digest():
    g = random_graph(7, 120, edge_prob=0.05)  # far more changes than bisection takes
    assert g.digest() == compute_digest_from_scratch(g)
    twin = g.copy()
    victims = sorted(twin.node_ids())[:40]
    twin = apply_patch(twin, build_patch(twin, delete_ids=victims))
    assert twin.digest() == compute_digest_from_scratch(twin)
    assert g.digest() == compute_digest_from_scratch(g)
    assert len(g) == 120


# -- hash-indexed diff against the full edge scan ------------------------------


def reference_diff(mine: Graph, theirs: Graph, products=None):
    """The full-edge-scan diff the hash-indexed one replaced."""

    def one_way(dst_graph: Graph, src_graph: Graph):
        dst_ids = dst_graph.node_ids()
        new_ids = {
            nid
            for nid in src_graph.node_ids() - dst_ids
            if products is None or src_graph.node(nid).product in products
        }
        surviving = dst_ids | new_ids
        nodes = [src_graph.node(nid) for nid in new_ids]
        edges = set()
        for nid in new_ids:
            edges.update(e for e in src_graph.out_edges(nid) if e.dst in surviving)
        edges.update(
            e
            for e in src_graph.edges()
            if e.src not in new_ids
            and e.src in dst_ids
            and e.dst in surviving
            and not dst_graph.has_edge(e.src, e.dst)
        )
        return build_patch(dst_graph, insert_nodes=nodes, insert_edges=edges)

    return one_way(mine, theirs), one_way(theirs, mine)


def _diverge(base: Graph, rng: random.Random, robot: int) -> Graph:
    """Delete some base nodes, add new ones and new edges, bump path memory."""
    gen = NodeIdGenerator(rng.randrange(2**32), robot)
    ids = sorted(base.node_ids())
    victims = rng.sample(ids, rng.randrange(len(ids) // 3 + 1))
    kept = [i for i in ids if i not in victims]
    new = [mknode(gen, [rng.uniform(-9, 9) for _ in range(2)], product=rng.randrange(4),
                  inlier_count=rng.randrange(50)) for _ in range(rng.randrange(6))]
    pool = kept + [n.id for n in new]
    edges = {}
    for _ in range(rng.randrange(10) if pool else 0):
        src, dst = rng.choice(pool), rng.choice(pool)
        if src != dst and not base.has_edge(src, dst):
            # poses differ by side, so a pair both sides add clashes
            edges[(src, dst)] = Edge(src, dst, Pose.from_translation(robot + rng.random()))
    g = apply_patch(base, build_patch(base, insert_nodes=new, insert_edges=edges.values(),
                                      delete_ids=victims))
    for nid in rng.sample(sorted(g.node_ids()), min(len(g), 3)):
        g.bump_path_memory(nid)
    return g


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 14),
       products=st.one_of(st.none(), st.sets(st.integers(0, 3), max_size=3)))
def test_diff_matches_full_edge_scan(seed, size, products):
    rng = random.Random(seed)
    base = random_graph(seed % 1000, size, dim=2, edge_prob=0.25)
    left, right = _diverge(base, rng, 1), _diverge(base, rng, 2)
    got = diff(left, right, products=products)
    want = reference_diff(left, right, products=products)
    for a, b in zip(got, want):
        assert patches_equal(a, b)
        assert patch_to_bytes(a) == patch_to_bytes(b)
    # the inputs are values: diffing changed neither side
    assert left.digest() == compute_digest_from_scratch(left)
    assert right.digest() == compute_digest_from_scratch(right)
