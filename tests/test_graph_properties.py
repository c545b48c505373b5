"""Property tests: maintained item hashes, copy-on-write copies, hash-indexed diff,
digests streamed over an item delta, the incremental descriptor index."""

import bisect
import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket import graph as graph_module
from expmarket import merging as merging_module
from expmarket.graph import (DanglingEdge, DuplicateContent, Edge, Graph, MissingTarget,
                             compute_digest_from_scratch, export_text)
from expmarket.ids import NodeIdGenerator
from expmarket.merging import Commutation, CommutationPolicy, IntegrityViolation, execute_trade
from expmarket.localiser import LocaliserConfig
from expmarket.patches import (Inserts, Repository, StateMismatch, _apply_in_place, apply_patch,
                               build_patch, diff, patches_equal, patches_since_common)
from expmarket.pose import Pose
from expmarket.serialize import patch_to_bytes

from _builders import built, chain_graph, diff_patches, mknode, random_graph

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


def _mutate(g: Graph, model: _Model, op: int, rng: random.Random, gen,
            dim: int | None = None) -> None:
    """One random change to ``g`` and its model; new nodes get ``dim``
    descriptor values, or a random count of them when ``dim`` is None."""
    ids = list(model.nodes)
    if op == 0 or not ids:
        size = rng.randrange(3) if dim is None else dim
        node = mknode(gen, [rng.uniform(-5, 5) for _ in range(size)],
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
       ops=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)), max_size=80))
def test_copies_stay_independent_and_digests_stay_exact(seed, ops):
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
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


def _assert_fresh_index(g: Graph) -> None:
    """``g``'s descriptor index equals one built afresh from its nodes."""
    nodes = list(g.nodes())
    index = g.descriptor_index()
    assert index.ids == tuple(n.id for n in nodes)
    if nodes:
        want = np.array([n.descriptor for n in nodes], dtype=np.float64)
        assert index.matrix.shape == want.shape
        assert index.matrix.tobytes() == want.tobytes()
    else:
        assert index.matrix.size == 0


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=80),
       dim=st.integers(0, 3))
def test_descriptor_index_matches_a_fresh_build(seed, ops, dim):
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
    graphs, models = [Graph()], [_Model()]
    for which, op in ops:
        i = which % len(graphs)
        if op >= 8:
            # reading one graph's index leaves every other copy's cached
            # index as it was, shared objects included
            others = [(g, g._desc_index) for j, g in enumerate(graphs) if j != i]
            saved = [(index.ids, index.matrix.copy())
                     for _, index in others if index is not None]
            _assert_fresh_index(graphs[i])
            assert all(g._desc_index is index for g, index in others)
            now = [index for _, index in others if index is not None]
            for index, (ids, matrix) in zip(now, saved):
                assert index.ids == ids
                assert index.matrix.tobytes() == matrix.tobytes()
        elif op >= 6:
            graphs.append(graphs[i].copy())
            models.append(models[i].copy())
        else:
            _mutate(graphs[i], models[i], op, rng, gen, dim=dim)
    for g, model in zip(graphs, models):
        _assert_fresh_index(g)
        _check(g, model)


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
    got = diff_patches(left, right, products)
    want = reference_diff(left, right, products=products)
    for a, b in zip(got, want):
        assert patches_equal(a, b)
        assert patch_to_bytes(a) == patch_to_bytes(b)
    # the inputs are values: diffing changed neither side
    assert left.digest() == compute_digest_from_scratch(left)
    assert right.digest() == compute_digest_from_scratch(right)


# -- diff from the patches since the last common state --------------------------


def _commit_random(repo: Repository, rng: random.Random, gen, pool: list, deletes: bool) -> None:
    """Commit new nodes, some near copies of descriptors in ``pool`` (so that
    MATCH finds pairs), chained and anchored to the map; with ``deletes``,
    also delete a node and an edge of the map."""
    ids = sorted(repo.graph.node_ids())
    new = []
    for _ in range(rng.randrange(1, 4)):
        if pool and rng.random() < 0.5:
            desc = [v + rng.uniform(-0.01, 0.01) for v in rng.choice(pool)]
        else:
            desc = [rng.uniform(-9, 9) for _ in range(2)]
        new.append(mknode(gen, desc, product=rng.randrange(4), inlier_count=rng.randrange(50)))
    pool.extend(n.descriptor for n in new)
    victims = [rng.choice(ids)] if deletes and ids else []
    kept = [i for i in ids if i not in victims]
    edges = [Edge(a.id, b.id, Pose.from_translation(1.0)) for a, b in zip(new, new[1:])]
    if kept:
        edges.append(Edge(rng.choice(kept), new[0].id, Pose.identity()))
    gone = [rng.choice(list(repo.graph.edges()))] if deletes and repo.graph.edge_count() else []
    gone = [e for e in gone if e.src not in victims and e.dst not in victims]
    repo.commit(build_patch(repo.graph, insert_nodes=new, insert_edges=edges,
                            delete_ids=victims, delete_edges=gone))


def _assert_same_diff(mine: Graph, theirs: Graph, got, want) -> None:
    for dst, got_inserts, want_inserts in zip((mine, theirs), got, want):
        a, b = built(dst, got_inserts), built(dst, want_inserts)
        assert patches_equal(a, b)
        assert (a.input_state, a.output_state) == (b.input_state, b.output_state)
        assert list(a.insert_nodes) == list(b.insert_nodes)
        assert list(a.insert_edges) == list(b.insert_edges)
        assert patch_to_bytes(a) == patch_to_bytes(b)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), robots=st.sampled_from([2, 3]), shared=st.booleans(),
       steps=st.lists(st.integers(0, 6), max_size=12))
def test_history_diff_matches_the_scan(seed, robots, shared, steps):
    """After every commit or trade (UNION or MATCH, scoped or not), the diff
    read from the patches since the last common state equals the scan diff,
    insert order included, for every ordered pair of repositories, and both
    equal the full-edge-scan oracle."""
    rng = random.Random(seed)
    gen = NodeIdGenerator(rng.randrange(2**32), 9)
    repos = [Repository(r, random_graph(seed % 1000 + (0 if shared else r), 5, dim=2,
                                        edge_prob=0.3))
             for r in range(robots)]
    pool = [n.descriptor for r in repos for n in r.graph.nodes()]
    union, match = CommutationPolicy(Commutation.UNION), CommutationPolicy(Commutation.MATCH)
    for step in steps:
        a, b = rng.sample(repos, 2)
        if step <= 2:
            _commit_random(a, rng, gen, pool, deletes=step == 2)
        else:
            policy = match if step in (4, 6) else union
            products = set(rng.sample(range(4), 2)) if step >= 5 else None
            execute_trade(a, b, policy, products=products)
        for mine in repos:
            assert mine.digest() == compute_digest_from_scratch(mine.graph)
            for theirs in repos:
                if theirs is mine:
                    continue
                since = patches_since_common(mine, theirs)
                scan = diff(mine.graph, theirs.graph)
                for got, want in zip(diff_patches(mine.graph, theirs.graph),
                                     reference_diff(mine.graph, theirs.graph)):
                    assert patches_equal(got, want)
                if since is not None:
                    _assert_same_diff(mine.graph, theirs.graph,
                                      diff(mine.graph, theirs.graph, since=since), scan)
                    scope = {rng.randrange(4)}
                    _assert_same_diff(mine.graph, theirs.graph,
                                      diff(mine.graph, theirs.graph, scope, since),
                                      diff(mine.graph, theirs.graph, scope))


# -- digests streamed over an item delta ---------------------------------------


def _item_hashes(g: Graph) -> set[bytes]:
    return {n.item_hash for n in g.nodes()} | {e.item_hash for e in g.edges()}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 16))
def test_digest_after_matches_an_applied_copy(seed, size):
    rng = random.Random(seed)
    g = random_graph(seed % 1000, size, dim=2, edge_prob=0.3)
    before = g.digest()
    assert g.digest_after([], []) == before
    # drop some nodes with every incident edge, and some other edges
    victims = set(rng.sample(sorted(g.node_ids()), rng.randrange(size // 2 + 1)))
    gone_edges = {e for e in g.edges()
                  if e.src in victims or e.dst in victims or rng.random() < 0.2}
    gen = NodeIdGenerator(rng.randrange(2**32), 1)
    new_nodes = [mknode(gen, [rng.uniform(-9, 9)]) for _ in range(rng.randrange(5))]
    pool = [i for i in g.node_ids() if i not in victims] + [n.id for n in new_nodes]
    new_edges = {}
    for _ in range(rng.randrange(6) if len(pool) > 1 else 0):
        src, dst = rng.sample(pool, 2)
        old = g.has_edge(src, dst) and g.edge(src, dst)
        if not old or old in gone_edges:  # add, or re-add with a new pose
            new_edges[(src, dst)] = Edge(src, dst, Pose.from_translation(rng.random()))
    dropped = [g.node(i).item_hash for i in victims]
    dropped += [e.item_hash for e in gone_edges]
    added = [n.item_hash for n in new_nodes]
    added += [e.item_hash for e in new_edges.values()]

    def applied(h: Graph) -> Graph:
        for e in gone_edges:
            h.remove_edge(e.src, e.dst)
        for i in victims:
            h.remove_node(i)
        for n in new_nodes:
            h.insert_node(n)
        for e in new_edges.values():
            h.insert_edge(e)
        return h

    # states of the memo of the last buffer hashed: a byte-equal buffer, an
    # unequal one of the same length, the empty one, and a stale one (the
    # buffer of the state before the delta)
    want_buf = _sorted_scratch_hashes(applied(g.copy()))
    memos = [bytes(want_buf), rng.randbytes(len(want_buf)), b"", g._sorted_hashes()]

    want = compute_digest_from_scratch(applied(g.copy()))
    for memo in memos:
        kept = graph_module._hashed(memo)[0]
        h = g.copy()
        assert h.digest_after(dropped, added) == want
        if kept == want_buf:  # taken: the graph holds the memo's buffer object
            assert h._after[2] is kept
        # a commit of that delta adopts the buffer, taken or spliced
        assert applied(h).digest() == want
        assert h._sorted_hashes() == _sorted_scratch_hashes(h)
    # the graph asked is unchanged
    assert g.digest() == before == compute_digest_from_scratch(g)


@pytest.mark.parametrize("extra", [0, 2, 256])
def test_digest_after_splices_at_the_ends_and_at_a_dropped_record(extra):
    # `extra` further records: the splices land in buffers of 9, 11 and 265
    gen = NodeIdGenerator(11, 0)
    nodes = sorted((mknode(gen, [float(i)]) for i in range(12 + extra)),
                   key=lambda n: n.item_hash)
    first, second, third, last = nodes[0], nodes[1], nodes[2], nodes[-1]
    g = graph_module.graph_from_content(
        [n for n in nodes if n not in (first, second, last)], [])
    # first sorts before every record, last after; second lands at the
    # offset of third, which is dropped in the same delta
    delta = ([third.item_hash],
             [n.item_hash for n in (last, second, first)])
    twin = g.copy()
    twin.remove_node(third.id)
    for n in (first, second, last):
        twin.insert_node(n)
    assert g.digest_after(*delta) == twin.digest() == compute_digest_from_scratch(twin)
    # dropping and re-adding one record leaves the digest as it is
    h = nodes[5].item_hash
    assert g.digest_after([h], [h]) == g.digest()
    # one record before the first, and one after the last
    assert g.digest_after([], [first.item_hash]) \
        == graph_module.graph_from_content([first] + nodes[2:-1], []).digest()
    assert g.digest_after([], [last.item_hash]) \
        == graph_module.graph_from_content(nodes[2:], []).digest()


def test_digest_after_rejects_an_absent_dropped_hash():
    g, nodes = chain_graph(NodeIdGenerator(3, 0), [[0.0], [1.0], [2.0]])
    absent = mknode(NodeIdGenerator(4, 0), [0.0]).item_hash
    with pytest.raises(KeyError):
        g.digest_after([absent], [])
    with pytest.raises(KeyError):  # adding it back does not make it present
        g.digest_after([absent], [absent])
    with pytest.raises(MissingTarget):  # no such edge
        build_patch(g, delete_edges=[Edge(nodes[2].id, nodes[0].id, Pose.identity())])
    with pytest.raises(MissingTarget):  # the edge is there, with another pose
        build_patch(g, delete_edges=[Edge(nodes[0].id, nodes[1].id, Pose.identity())])


def test_a_bulk_delta_folds_on_a_copy_of_a_live_graph():
    """Over a thousand inserts and some removals before one read, on a copy
    of a graph that stays alive: one fold brings the copy's buffer up to
    date, and the original keeps its own buffer and content."""
    rng = random.Random(41)
    gen = NodeIdGenerator(41, 0)
    old_nodes = [mknode(gen, [float(i)]) for i in range(40)]
    original = graph_module.graph_from_content(old_nodes, [])
    old_digest, old_text = original.digest(), export_text(original)
    g = original.copy()
    new_nodes = [mknode(gen, [rng.uniform(-9, 9)]) for _ in range(1100)]
    for n in new_nodes:
        g.insert_node(n)
    linked = new_nodes[:300]
    edges = [Edge(a.id, b.id, Pose.from_translation(1.0)) for a, b in zip(linked, linked[1:])]
    for e in edges:
        g.insert_edge(e)
    for e in edges[::7]:
        g.remove_edge(e.src, e.dst)
    for n in old_nodes[::3] + new_nodes[-200::5]:
        g.remove_node(n.id)
    assert len(g._delta) > 1024
    assert g.digest() == compute_digest_from_scratch(g)
    assert original.digest() == old_digest == compute_digest_from_scratch(original)
    assert export_text(original) == old_text


def _random_edit(base: Graph, seed: int) -> dict:
    """``build_patch`` arguments for a random edit of ``base``: deleted nodes,
    new nodes, new edges among kept and new nodes, and deleted edges."""
    rng = random.Random(seed)
    ids = sorted(base.node_ids())
    victims = set(rng.sample(ids, rng.randrange(len(ids) + 1)))
    kept = [i for i in ids if i not in victims]
    gen = NodeIdGenerator(rng.randrange(2**32), 2)
    new = [mknode(gen, [rng.uniform(-9, 9)]) for _ in range(rng.randrange(4))]
    pool = kept + [n.id for n in new]
    inserts = {}
    for _ in range(rng.randrange(6) if len(pool) > 1 else 0):
        src, dst = rng.sample(pool, 2)
        if not base.has_edge(src, dst):
            inserts[(src, dst)] = Edge(src, dst, Pose.from_translation(rng.random()))
    deletes = [e for e in base.edges()
               if e.src not in victims and e.dst not in victims and rng.random() < 0.2]
    return dict(insert_nodes=new, insert_edges=inserts.values(), delete_ids=victims,
                delete_edges=deletes)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 14))
def test_built_output_state_is_the_applied_digest(seed, size):
    base = random_graph(seed % 1000, size, dim=2, edge_prob=0.4)
    patch = build_patch(base, **_random_edit(base, seed))
    after = apply_patch(base, patch)
    assert patch.output_state == after.digest() == compute_digest_from_scratch(after)


# -- a commit reuses the digest its patch was built with -------------------------


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 14))
def test_a_commit_takes_its_digest_from_the_build(seed, size):
    """Committing a built patch splices and hashes nothing again: the
    commit adopts the buffer and digest ``digest_after`` made, and the
    digest is the one from scratch and of the adopted buffer."""
    repo = Repository(0, random_graph(seed % 1000, size, dim=2, edge_prob=0.4))
    patch = build_patch(repo.graph, **_random_edit(repo.graph, seed))
    kept = repo.graph._after
    repo.commit(patch)
    g = repo.graph
    assert g.digest() == patch.output_state == compute_digest_from_scratch(g)
    assert not g._delta and g._after is None  # the build's buffer is adopted
    if not patch.is_empty():
        assert g._sorted is kept[2]
    assert hashlib.sha256(g._sorted_hashes()).digest() == g.digest()


def _sorted_scratch_hashes(g: Graph) -> bytes:
    return b"".join(sorted(_item_hashes(g)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 14))
def test_a_commit_leaves_no_delta_to_fold(seed, size):
    repo = Repository(0, random_graph(seed % 1000, size, dim=2, edge_prob=0.4))
    repo.commit(build_patch(repo.graph, **_random_edit(repo.graph, seed)))
    assert not repo.graph._delta
    assert repo.graph._sorted_hashes() == _sorted_scratch_hashes(repo.graph)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 14))
def test_a_copy_and_its_original_adopt_one_built_buffer(seed, size):
    """A copy shares the kept build result: applying the patch to a copy
    and then committing it to the original leaves both right."""
    g = random_graph(seed % 1000, size, dim=2, edge_prob=0.4)
    patch = build_patch(g, **_random_edit(g, seed))
    kept = g._after
    copy = apply_patch(g, patch)
    _apply_in_place(g, patch)
    for h in (copy, g):
        assert h.digest() == patch.output_state == compute_digest_from_scratch(h)
        assert h._sorted_hashes() == _sorted_scratch_hashes(h)
        if not patch.is_empty():
            assert h._sorted is kept[2]


def _diverged_sides(products=(0, 0, 0)) -> list[Repository]:
    """Two repositories on one base, each after its own three-node commit:
    near-twins across the two sides, so that MATCH pairs them, each side
    winning some pairs, so each side deletes and inserts nodes. The new
    nodes take their products from ``products``."""
    gen = NodeIdGenerator(17, 5)
    base = random_graph(17, 8, dim=2, edge_prob=0.3)
    sides = [Repository(r, base) for r in range(2)]
    anchor = next(iter(base.node_ids()))
    for r, repo in enumerate(sides):
        new = [mknode(gen, [float(i), 0.001 * r], inlier_count=(r + i) % 2, product=p)
               for i, p in enumerate(products)]
        edges = [Edge(anchor, new[0].id, Pose.identity())]
        edges += [Edge(a.id, b.id, Pose.from_translation(1.0)) for a, b in zip(new, new[1:])]
        repo.commit(build_patch(repo.graph, insert_nodes=new, insert_edges=edges))
        repo.graph.digest()
    return sides


def _buffer_passes(monkeypatch, run):
    """``run()``'s result and how many SHA-256 passes it made over a whole
    hash buffer. Item-hash inputs start with a one-byte ``N``/``E`` tag and
    have odd length; buffers are whole 32-byte records."""
    passes = []
    sha256 = hashlib.sha256

    def counted(data=b"", *args, **kwargs):
        if len(data) % 32 == 0:
            passes.append(len(data))
        return sha256(data, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(graph_module.hashlib, "sha256", counted)
        result = run()
    return result, len(passes)


def _policy(kind: Commutation) -> CommutationPolicy:
    return CommutationPolicy(kind, localiser=LocaliserConfig(tau_m=0.1))


@pytest.mark.parametrize("policy", [Commutation.UNION, Commutation.MATCH])
def test_a_trade_splices_and_hashes_each_changed_side_once(monkeypatch, policy):
    """Each side of a trade that changes is built once (one ``digest_after``
    call) and spliced once; its commit adopts that buffer. The two sides
    converge, so the second side's build takes the first side's digest:
    one SHA-256 pass over the common buffer, which both sides then share."""
    sides = _diverged_sides()
    calls = {"digest_after": 0, "splice": 0}
    digest_after, spliced = Graph.digest_after, graph_module._spliced

    def counted_digest_after(self, *args, **kwargs):
        calls["digest_after"] += 1
        return digest_after(self, *args, **kwargs)

    def counted_splice(buf, dropped, added):
        calls["splice"] += 1
        return spliced(buf, dropped, added)

    monkeypatch.setattr(Graph, "digest_after", counted_digest_after)
    monkeypatch.setattr(graph_module, "_spliced", counted_splice)
    out, passes = _buffer_passes(monkeypatch,
                                 lambda: execute_trade(sides[0], sides[1], _policy(policy)))
    changed = sum(not p.is_empty() for p in (out.pair.for_left, out.pair.for_right))
    assert changed == 2
    assert policy is Commutation.UNION or out.stats.matches == 3
    for repo in sides:
        assert repo.digest() == compute_digest_from_scratch(repo.graph)
        assert not repo.graph._delta
    assert calls == {"digest_after": changed, "splice": changed}
    assert passes == 1
    assert sides[0].graph._sorted is sides[1].graph._sorted


def test_a_trade_that_does_not_converge_hashes_each_side(monkeypatch):
    """A scoped trade carries each side's product-0 nodes over and leaves
    its product-1 node where it is: the two sides end apart, and each
    side's buffer is hashed on its own."""
    sides = _diverged_sides(products=(0, 1, 0))
    out, passes = _buffer_passes(monkeypatch, lambda: execute_trade(
        sides[0], sides[1], _policy(Commutation.UNION), products={0}))
    assert not (out.pair.for_left.is_empty() or out.pair.for_right.is_empty())
    assert sides[0].digest() != sides[1].digest()
    for repo in sides:
        assert repo.digest() == compute_digest_from_scratch(repo.graph)
    assert passes == 2
    assert sides[0].graph._sorted is not sides[1].graph._sorted


def test_a_divergence_is_caught_when_the_second_side_cannot_reuse(monkeypatch):
    """An outgoing diff that loses a node leaves the right side short: its
    buffer differs from the left side's, so it is hashed, and the
    convergence check still fails."""
    sides = _diverged_sides()
    real_diff = merging_module.diff

    def lossy_diff(*args, **kwargs):
        incoming, outgoing = real_diff(*args, **kwargs)
        lost = next(iter(outgoing.insert_nodes))
        return incoming, Inserts(
            {nid: n for nid, n in outgoing.insert_nodes.items() if nid != lost},
            frozenset(e for e in outgoing.insert_edges if lost not in (e.src, e.dst)))

    monkeypatch.setattr(merging_module, "diff", lossy_diff)
    with pytest.raises(IntegrityViolation, match="did not converge"):
        execute_trade(sides[0], sides[1], _policy(Commutation.UNION), enforce=True)
    right = sides[1]
    assert right.digest() == compute_digest_from_scratch(right.graph)
    assert right.digest() != sides[0].digest()


def _two_inserts(g: Graph):
    """Two one-node patches against ``g``, each built on its own copy, so
    ``g`` keeps no build result of either."""
    gen = NodeIdGenerator(31, 4)
    return [build_patch(g.copy(), insert_nodes=[mknode(gen, [float(i)])]) for i in range(2)]


def test_a_forged_output_state_is_refused_after_a_build():
    g = random_graph(5, 8, dim=2)
    for forged in (g.digest(), _two_inserts(g)[0].output_state, bytes(32)):
        repo = Repository(0, g)
        built = build_patch(repo.graph, **_random_edit(g, 5))
        assert not built.is_empty()
        with pytest.raises(StateMismatch):
            repo.commit(replace(built, output_state=forged))


def test_content_other_than_the_built_delta_is_hashed_afresh():
    g = random_graph(6, 8, dim=2)
    first, second = _two_inserts(g)
    build_patch(g, insert_nodes=first.insert_nodes.values())  # kept on g
    apply_patch(g, second)  # another delta, on a copy sharing what g kept: hashed
    with pytest.raises(StateMismatch):  # the kept digest is not taken for it
        apply_patch(g, replace(second, output_state=first.output_state))
    # after a fold, the kept digest's delta over the new buffer is hashed afresh
    g.insert_node(next(iter(second.insert_nodes.values())))
    g.digest()  # another delta: folded, and the buffer is replaced
    g.insert_node(next(iter(first.insert_nodes.values())))
    assert g.digest() == compute_digest_from_scratch(g) != first.output_state


def test_built_output_state_with_an_edge_between_two_deleted_nodes():
    g, nodes = chain_graph(NodeIdGenerator(5, 0), [[0.0], [1.0], [2.0], [3.0]])
    a, b = nodes[1].id, nodes[2].id  # a -> b is an in-edge of b from a deleted node
    patch = build_patch(g, delete_ids=[a, b])
    after = apply_patch(g, patch)
    assert patch.output_state == after.digest() == compute_digest_from_scratch(after)
    assert len(after) == 2 and after.edge_count() == 0


def test_malformed_requests_reach_the_caller():
    gen = NodeIdGenerator(6, 0)
    g, nodes = chain_graph(gen, [[0.0], [1.0]])
    stranger = mknode(gen, [7.0])
    with pytest.raises(MissingTarget):
        apply_patch(g, build_patch(g, delete_edges=[Edge(nodes[1].id, nodes[0].id,
                                                         Pose.identity())]))
    with pytest.raises(DanglingEdge):
        apply_patch(g, build_patch(g, insert_edges=[Edge(nodes[0].id, stranger.id,
                                                         Pose.identity())]))
    with pytest.raises(DuplicateContent):
        apply_patch(g, build_patch(g, insert_nodes=[nodes[0]]))
    with pytest.raises(DuplicateContent):
        apply_patch(g, build_patch(g, insert_edges=[Edge(nodes[0].id, nodes[1].id,
                                                         Pose.identity())]))
    assert g.digest() == compute_digest_from_scratch(g)


# -- equal digests: nothing is missing -----------------------------------------


def _twins():
    """A graph, the same content built in another order with other path memory,
    and a copy of the first."""
    g = random_graph(21, 30, dim=2, edge_prob=0.2)
    nodes = [replace(n, path_memory=n.path_memory + 7) for n in reversed(list(g.nodes()))]
    other = graph_module.graph_from_content(nodes, reversed(list(g.edges())))
    return g, other, g.copy()


@pytest.mark.parametrize("products", [None, {0, 2}])
def test_equal_content_diffs_to_two_empty_patches(products):
    g, other, twin = _twins()
    assert g.digest() == other.digest() == twin.digest()
    for a, b in ((g, other), (other, g), (g, twin), (twin, other)):
        assert a.items_missing_from(b) == ([], [])
        incoming, outgoing = diff_patches(a, b, products)
        assert incoming.is_empty() and outgoing.is_empty()
        assert incoming.input_state == incoming.output_state == a.digest()


def test_missing_items_keep_insertion_order():
    g, _, twin = _twins()
    gen = NodeIdGenerator(22, 3)
    new = [mknode(gen, [float(i)]) for i in range(6)]
    anchor = next(iter(g.node_ids()))
    for n in new:
        twin.insert_node(n)
    edges = [Edge(a.id, b.id, Pose.identity()) for a, b in zip(new, new[1:])]
    edges.append(Edge(anchor, new[0].id, Pose.identity()))
    for e in edges:
        twin.insert_edge(e)
    assert twin.digest() != g.digest()
    assert twin.items_missing_from(g) == (new, edges)
    assert g.items_missing_from(twin) == ([], [])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 60),
       drops=st.integers(0, 60), everything=st.booleans(), readds=st.integers(0, 60),
       adds=st.integers(0, 30))
def test_folding_a_delta_matches_sorting_afresh(seed, size, drops, everything, readds, adds):
    """The fold and ``digest_after`` splice a delta into the sorted buffer
    exactly as a sort of the resulting hash set would order it, including
    drops of the whole buffer and re-adds of dropped hashes."""
    rng = random.Random(seed)
    kept = [rng.randbytes(32) for _ in range(size)]
    new = [rng.randbytes(32) for _ in range(adds)]
    gone = rng.sample(kept, size if everything else min(drops, size))
    back = rng.sample(gone, min(readds, len(gone)))
    want = b"".join(sorted(set(kept) - set(gone) | set(new) | set(back)))

    g = Graph()  # a graph whose buffer holds ``kept``, with no cached digest
    g._sorted = b"".join(sorted(kept))
    g._digest = None
    assert g.digest_after(gone, new + back) == hashlib.sha256(want).digest()
    for h in gone:
        g._track(h, False)
    for h in new + back:
        g._track(h, True)
    assert g._sorted_hashes() == want
    assert g.digest() == hashlib.sha256(want).digest()


def _zero_padded(lead: int, trail: int, body: bytes) -> bytes:
    """A 32-byte hash with at least ``lead`` leading and ``trail`` trailing
    zero bytes."""
    mid = body[:max(0, 32 - lead - trail)]
    return bytes(lead) + mid + bytes(32 - lead - len(mid))


_hashes = st.binary(min_size=32, max_size=32) | st.builds(
    _zero_padded, st.integers(0, 32), st.integers(0, 32), st.binary(min_size=32, max_size=32))


@settings(max_examples=300, deadline=None)
@given(held=st.lists(_hashes, unique=True, max_size=40), asked=st.lists(_hashes, max_size=20))
def test_s32_records_sort_and_search_as_bytes(held, asked):
    """numpy orders 32-byte records as ``bytes`` does, leading and trailing
    zero bytes included, so one ``searchsorted`` finds every offset."""
    records = np.array(held, dtype="S32")
    assert [held[i] for i in np.argsort(records, kind="stable")] == sorted(held)
    ordered = sorted(held)
    buf = bytearray(b"".join(ordered))
    assert graph_module._offsets(buf, asked) \
        == [bisect.bisect_left(ordered, h) * 32 for h in asked]
    buf.extend(bytes(32))  # the buffer was released: it can be resized
