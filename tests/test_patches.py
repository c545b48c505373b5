"""Patch theory: application, inverse, composition, equality, diff."""

import random

import pytest

from expmarket import graph as graph_module
from expmarket.graph import (
    EMPTY_GRAPH_DIGEST,
    DanglingEdge,
    DuplicateContent,
    Edge,
    Graph,
    MissingTarget,
    Node,
    PatchError,
    SelfLoop,
    compute_digest_from_scratch,
)
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.merging import Commutation, CommutationPolicy, execute_trade
from expmarket.patches import (
    CompositionError,
    History,
    Patch,
    Repository,
    StateMismatch,
    apply_patch,
    build_patch,
    compose,
    diff,
    invert_patch,
    patches_equal,
)
from expmarket.pose import Pose
from expmarket.serialize import graph_to_bytes

from _builders import chain_graph, diff_patches, mknode, random_graph, random_insert_patch


def gen(seed=0, robot=0):
    return NodeIdGenerator(seed, robot)


# -- state digests -----------------------------------------------------------


def test_empty_graph_digest_is_documented_constant():
    assert Graph().digest() == EMPTY_GRAPH_DIGEST
    assert EMPTY_GRAPH_DIGEST.hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_digest_permutation_invariant():
    g = gen()
    n1 = mknode(g, [1.0, 2.0])
    n2 = mknode(g, [3.0, 4.0])
    a = Graph()
    a.insert_node(n1)
    a.insert_node(n2)
    b = Graph()
    b.insert_node(n2)
    b.insert_node(n1)
    assert a.digest() == b.digest()


def test_digest_sensitive_to_content():
    g = gen()
    nodes = [mknode(g, [float(i)]) for i in range(3)]
    full = Graph()
    for n in nodes:
        full.insert_node(n)
    partial = Graph()
    for n in nodes[:2]:
        partial.insert_node(n)
    assert full.digest() != partial.digest()


def test_digest_ignores_path_memory_but_not_payload():
    g = gen()
    node = mknode(g, [1.0], inlier_count=5)
    a = Graph()
    a.insert_node(node)
    before = a.digest()
    a.bump_path_memory(node.id)
    assert a.digest() == before
    assert a.node(node.id).path_memory == 1

    b = Graph()
    b.insert_node(Node(id=node.id, descriptor=(1.0,), inlier_count=6))
    assert b.digest() != before


def test_digest_cache_matches_recompute_after_mutations():
    rng = random.Random(1)
    for seed in range(5):
        g = random_graph(seed, 12)
        ids = sorted(g.node_ids())
        g.bump_path_memory(rng.choice(ids))
        victim = next(i for i in ids if not g.out_edges(i) and not g.in_edges(i)) \
            if any(not g.out_edges(i) and not g.in_edges(i) for i in ids) else None
        if victim is not None:
            g.remove_node(victim)
        assert g.digest() == compute_digest_from_scratch(g)


# -- apply -------------------------------------------------------------------


def test_apply_insert_reaches_declared_state():
    base, _ = chain_graph(gen(), [[0.0], [1.0], [2.0]])
    patch = random_insert_patch(base, 7, 2)
    out = apply_patch(base, patch)
    assert out.digest() == patch.output_state
    assert len(out) == 5


def test_apply_empty_patch_is_identity():
    base, _ = chain_graph(gen(), [[0.0], [1.0]])
    patch = build_patch(base)
    assert patch.input_state == patch.output_state
    assert apply_patch(base, patch).digest() == base.digest()


def test_apply_delete_single_insert_returns_to_empty():
    g = gen()
    node = mknode(g, [1.0])
    base = Graph()
    base.insert_node(node)
    patch = build_patch(base, delete_ids=[node.id])
    out = apply_patch(base, patch)
    assert out.digest() == EMPTY_GRAPH_DIGEST
    assert len(out) == 0


def test_apply_checks_input_state():
    base, _ = chain_graph(gen(), [[0.0], [1.0]])
    other, _ = chain_graph(gen(9), [[5.0]])
    patch = random_insert_patch(base, 3, 2)
    with pytest.raises(StateMismatch):
        apply_patch(other, patch)


def test_apply_missing_delete_target():
    base, _ = chain_graph(gen(), [[0.0]])
    ghost = mknode(gen(5), [9.0])
    staged = Graph()
    staged.insert_node(ghost)
    patch = build_patch(staged, delete_ids=[ghost.id])
    bad = Patch(base.digest(), patch.output_state, patch.insert_nodes,
                patch.delete_nodes, patch.insert_edges, patch.delete_edges)
    with pytest.raises(MissingTarget):
        apply_patch(base, bad)
    with pytest.raises(MissingTarget):  # refused when built, too
        build_patch(Graph(), delete_ids=[5])


def test_apply_dangling_edge_rejected():
    base = Graph()
    g = gen()
    n1 = mknode(g, [0.0])
    stranger = mknode(g, [1.0])
    bad = Patch(base.digest(), b"\x00" * 32, {n1.id: n1}, {},
                frozenset({Edge(n1.id, stranger.id, Pose.identity())}))
    with pytest.raises(DanglingEdge):
        apply_patch(base, bad)


def test_apply_duplicate_insert_rejected():
    g = gen()
    node = mknode(g, [1.0])
    base = Graph()
    base.insert_node(node)
    bad = Patch(base.digest(), b"\x00" * 32, {node.id: node}, {})
    with pytest.raises(DuplicateContent):
        apply_patch(base, bad)


def test_no_node_both_inserted_and_deleted():
    g = gen()
    node = mknode(g, [1.0])
    with pytest.raises(ValueError):
        Patch(b"\x00" * 32, b"\x00" * 32, {node.id: node}, {node.id: node})


# -- invert ------------------------------------------------------------------


def test_invert_insert_becomes_delete_with_same_payload():
    base = Graph()
    patch = random_insert_patch(base, 3, 2)
    inv = invert_patch(patch)
    assert set(inv.delete_nodes) == set(patch.insert_nodes)
    assert inv.input_state == patch.output_state
    assert inv.output_state == patch.input_state


def test_invert_is_involution():
    base, _ = chain_graph(gen(), [[0.0], [1.0]])
    patch = random_insert_patch(base, 4, 2)
    again = invert_patch(invert_patch(patch))
    assert patches_equal(patch, again)
    assert again.input_state == patch.input_state
    assert again.output_state == patch.output_state


def test_invert_round_trip_property_1000_cases():
    for case in range(1000):
        rng = random.Random(derive_seed("invert-prop", case))
        base = random_graph(case, rng.randrange(0, 10))
        if rng.random() < 0.5 or len(base) == 0:
            patch = random_insert_patch(base, case, rng.randrange(1, 6))
        else:
            victims = rng.sample(sorted(base.node_ids()),
                                 rng.randrange(1, len(base) + 1))
            patch = build_patch(base, delete_ids=victims)
        stepped = apply_patch(base, patch)
        back = apply_patch(stepped, invert_patch(patch))
        assert back.digest() == base.digest()


# -- compose -----------------------------------------------------------------


def test_compose_disjoint_inserts_union():
    base = Graph()
    a = random_insert_patch(base, 1, 2)
    mid = apply_patch(base, a)
    b = random_insert_patch(mid, 2, 3)
    c = compose(a, b)
    assert set(c.insert_nodes) == set(a.insert_nodes) | set(b.insert_nodes)
    assert c.input_state == a.input_state
    assert c.output_state == b.output_state


def test_compose_insert_then_delete_cancels():
    base = Graph()
    a = random_insert_patch(base, 3, 2)
    mid = apply_patch(base, a)
    b = build_patch(mid, delete_ids=list(a.insert_nodes))
    c = compose(a, b)
    assert c.is_empty()
    assert c.input_state == c.output_state == base.digest()


def test_compose_rejects_state_gap():
    base = Graph()
    a = random_insert_patch(base, 4, 2)
    with pytest.raises(StateMismatch):
        compose(a, a)


def test_compose_rejects_delete_then_reinsert():
    g = gen()
    node = mknode(g, [1.0])
    base = Graph()
    base.insert_node(node)
    a = build_patch(base, delete_ids=[node.id])
    empty = apply_patch(base, a)
    b = build_patch(empty, insert_nodes=[node])
    with pytest.raises(CompositionError):
        compose(a, b)


def test_compose_vs_sequential_property_1000_cases():
    for case in range(1000):
        rng = random.Random(derive_seed("compose-prop", case))
        base = random_graph(case + 5000, rng.randrange(0, 8))
        a = random_insert_patch(base, derive_seed(case, "a"), rng.randrange(1, 5))
        mid = apply_patch(base, a)
        if rng.random() < 0.4:
            pool = sorted(mid.node_ids())
            victims = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
            b = build_patch(mid, delete_ids=victims)
        else:
            b = random_insert_patch(mid, derive_seed(case, "b"), rng.randrange(1, 5))
        sequential = apply_patch(mid, b)
        combined = apply_patch(base, compose(a, b))
        assert combined.digest() == sequential.digest()


# -- equality ----------------------------------------------------------------


def test_patches_equal_reflexive_and_set_semantics():
    base = Graph()
    patch = random_insert_patch(base, 3, 3)
    assert patches_equal(patch, patch)
    reordered = Patch(patch.input_state, patch.output_state,
                      dict(sorted(patch.insert_nodes.items())), patch.delete_nodes,
                      patch.insert_edges, patch.delete_edges)
    assert patches_equal(patch, reordered)


def test_patches_equal_is_payload_sensitive():
    g = gen()
    node = mknode(g, [1.0, 2.0], inlier_count=5)
    variant = Node(id=node.id, descriptor=(1.0, 2.5), inlier_count=5)
    base = Graph()
    a = build_patch(base, insert_nodes=[node])
    b = build_patch(base, insert_nodes=[variant])
    assert not patches_equal(a, b)


# -- diff --------------------------------------------------------------------


def _fig2_pair():
    """Common chain n1->n2->n3; one side adds n4,n5, the other n6,n7."""
    g = gen(42)
    base, base_nodes = chain_graph(g, [[0.0], [1.0], [2.0]])
    mine_nodes = [mknode(g, [10.0]), mknode(g, [11.0])]
    theirs_nodes = [mknode(g, [20.0]), mknode(g, [21.0])]

    def extend(nodes):
        side = base.copy()
        for n in nodes:
            side.insert_node(n)
        side.insert_edge(Edge(base_nodes[2].id, nodes[0].id, Pose.from_translation(5)))
        side.insert_edge(Edge(nodes[0].id, nodes[1].id, Pose.from_translation(5)))
        return side

    return extend(mine_nodes), extend(theirs_nodes), mine_nodes, theirs_nodes


def test_diff_fig2_node_sets():
    mine, theirs, mine_nodes, theirs_nodes = _fig2_pair()
    incoming, outgoing = diff_patches(mine, theirs)
    assert set(incoming.insert_nodes) == {n.id for n in theirs_nodes}
    assert set(outgoing.insert_nodes) == {n.id for n in mine_nodes}
    # both reach the union state u = {n1..n7}
    u1 = apply_patch(mine, incoming)
    u2 = apply_patch(theirs, outgoing)
    assert u1.digest() == u2.digest()
    assert len(u1) == 7


def test_diff_identical_graphs_is_empty():
    g = random_graph(3, 6)
    incoming, outgoing = diff(g, g.copy())
    assert incoming.is_empty() and outgoing.is_empty()


def test_diff_one_sided():
    g = gen()
    node = mknode(g, [1.0])
    theirs = Graph()
    theirs.insert_node(node)
    incoming, outgoing = diff(Graph(), theirs)
    assert set(incoming.insert_nodes) == {node.id}
    assert outgoing.is_empty()


def test_diff_closure_property_1000_cases():
    for case in range(1000):
        rng = random.Random(derive_seed("diff-prop", case))
        base = random_graph(case + 9000, rng.randrange(0, 6))
        mine = apply_patch(base, random_insert_patch(base, derive_seed(case, "m"),
                                                     rng.randrange(0, 5) + 1))
        theirs = apply_patch(base, random_insert_patch(base, derive_seed(case, "t"),
                                                       rng.randrange(0, 5) + 1))
        incoming, outgoing = diff_patches(mine, theirs)
        assert apply_patch(mine, incoming).digest() == \
            apply_patch(theirs, outgoing).digest()


def test_element_application_order_is_irrelevant():
    # apply the same patch content via differently-ordered node maps
    base = random_graph(77, 5)
    patch = random_insert_patch(base, 78, 4)
    out1 = apply_patch(base, patch)
    shuffled = Patch(patch.input_state, patch.output_state,
                     dict(list(patch.insert_nodes.items())[::-1]), patch.delete_nodes,
                     patch.insert_edges, patch.delete_edges)
    out2 = apply_patch(base, shuffled)
    assert out1.digest() == out2.digest()


# -- history and repository --------------------------------------------------


def test_history_replay_reproduces_digest():
    repo = Repository(0)
    for step in range(4):
        patch = random_insert_patch(repo.graph, derive_seed("hist", step), 2)
        repo.commit(patch)
    assert repo.history.replay().digest() == repo.digest()
    assert len(repo.history) == 4


def test_history_rejects_gap():
    repo = Repository(0)
    patch = random_insert_patch(repo.graph, 1, 2)
    repo.commit(patch)
    with pytest.raises(StateMismatch):
        repo.history.append(patch)


def test_history_chain_linearity():
    repo = Repository(0)
    for step in range(3):
        repo.commit(random_insert_patch(repo.graph, derive_seed("lin", step), 1))
    patches = repo.history.patches
    for a, b in zip(patches, patches[1:]):
        assert a.output_state == b.input_state


def test_history_positions_follow_appends_and_copies():
    repo = Repository(0, random_graph(3, 4))
    start = repo.digest()
    repo.commit(random_insert_patch(repo.graph, derive_seed("pos", 0), 2))
    twin = repo.copy()
    twin.commit(random_insert_patch(twin.graph, derive_seed("pos", 1), 2))
    assert repo.history.positions == {start: 0, repo.digest(): 1}
    assert twin.history.positions == {start: 0, repo.digest(): 1, twin.digest(): 2}
    assert History(repo.history.origin, list(twin.history.patches)).positions \
        == twin.history.positions
    assert [twin.history.state_at(i) for i in range(3)] == [start, repo.digest(), twin.digest()]


def _edit(base, seed: int):
    """A patch against ``base`` that deletes a node, links new nodes to the
    base, and inserts an edge between two base nodes: it changes adjacency
    containers that a copy of ``base`` shares."""
    rng = random.Random(derive_seed("edit", seed))
    ids = sorted(base.node_ids())
    victim = rng.choice(ids)
    kept = [nid for nid in ids if nid != victim]
    ids_new = gen(seed, 3)
    new = [mknode(ids_new, [rng.uniform(-9, 9) for _ in range(4)]) for _ in range(3)]
    edges = [Edge(rng.choice(kept), new[0].id, Pose.from_translation(5.0)),
             Edge(new[0].id, new[1].id, Pose.from_translation(5.0))]
    src, dst = rng.sample(kept, 2)
    if not base.has_edge(src, dst):
        edges.append(Edge(src, dst, Pose.from_translation(2.0)))
    return build_patch(base, insert_nodes=new, insert_edges=edges, delete_ids=[victim])


def test_apply_patch_leaves_its_input_graph_unchanged():
    for seed in range(20):
        base = random_graph(seed, 12)
        before = graph_to_bytes(base), base.digest()
        patch = _edit(base, seed)
        out = apply_patch(base, patch)
        out.bump_path_memory(next(iter(out.node_ids())))
        assert out.digest() == patch.output_state == compute_digest_from_scratch(out)
        assert (graph_to_bytes(base), base.digest()) == before
        assert base.digest() == compute_digest_from_scratch(base)
        assert graph_to_bytes(apply_patch(base, patch)) != graph_to_bytes(out)  # the bump


def test_repositories_built_from_one_graph_never_change_it():
    """Two repositories built from one graph, as a benchmark's map pairs
    are: their commits and a trade between them leave that graph as it was."""
    for seed in range(20):
        shared = random_graph(seed, 12)
        before = graph_to_bytes(shared), shared.digest()
        pair = [Repository(0, shared), Repository(1, shared)]
        for side, repo in enumerate(pair):
            assert repo.graph is not shared and repo.digest() == before[1]
            repo.commit(_edit(repo.graph, 2 * seed + side))
            repo.graph.bump_path_memory(next(iter(repo.graph.node_ids())))
        execute_trade(pair[0], pair[1], CommutationPolicy(Commutation.UNION))
        assert pair[0].digest() == pair[1].digest() != before[1]
        assert (graph_to_bytes(shared), shared.digest()) == before
        assert shared.digest() == compute_digest_from_scratch(shared)


def test_commit_refused_for_a_wrong_input_state_changes_nothing():
    repo = Repository(0, random_graph(4, 10))
    repo.commit(_edit(repo.graph, 1))
    stale = _edit(random_graph(4, 10), 2)  # built against the state before that commit
    before = graph_to_bytes(repo.graph), repo.digest(), list(repo.history.patches)
    with pytest.raises(StateMismatch):
        repo.commit(stale)
    assert (graph_to_bytes(repo.graph), repo.digest(), repo.history.patches) == before
    repo.commit(_edit(repo.graph, 3))  # still usable
    assert repo.digest() == compute_digest_from_scratch(repo.graph)


def test_a_self_loop_is_a_patch_error_that_changes_nothing(monkeypatch):
    """``build_patch`` refuses an inserted self-loop before it hashes
    anything; a hand-built patch carrying one is refused at commit by the
    graph. Both raise ``SelfLoop``, a ``PatchError`` and a ``ValueError``,
    and leave the graph, its digest and the history as they were."""
    pending = random_graph(4, 10)
    pending.insert_node(mknode(gen(7), [3.0, 1.0, 4.0, 1.0]))  # digest not yet taken
    a = next(iter(pending.node_ids()))
    loop = Edge(a, a, Pose.from_translation(1.0))
    fresh = mknode(gen(8), [0.0] * 4)

    def no_hashing(*args, **kwargs):
        raise AssertionError("hashed before the self-loop was refused")

    with monkeypatch.context() as m:
        m.setattr(graph_module.hashlib, "sha256", no_hashing)
        with pytest.raises(SelfLoop) as caught:
            build_patch(pending, insert_nodes=[fresh], insert_edges=iter([loop]))
    assert isinstance(caught.value, PatchError) and isinstance(caught.value, ValueError)
    assert pending.digest() == compute_digest_from_scratch(pending)

    repo = Repository(0, random_graph(4, 10))
    repo.commit(_edit(repo.graph, 1))
    b = next(iter(repo.graph.node_ids()))
    bad = Patch(repo.digest(), b"\x00" * 32, {}, {},
                frozenset({Edge(b, b, Pose.from_translation(1.0))}))
    before = graph_to_bytes(repo.graph), repo.digest(), list(repo.history.patches)
    with pytest.raises(SelfLoop) as caught:
        repo.commit(bad)
    assert isinstance(caught.value, PatchError) and isinstance(caught.value, ValueError)
    assert (graph_to_bytes(repo.graph), repo.digest(), repo.history.patches) == before
    assert repo.digest() == compute_digest_from_scratch(repo.graph)
    repo.commit(_edit(repo.graph, 3))  # still usable
