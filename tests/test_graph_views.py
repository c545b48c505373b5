"""Property tests: ``Graph.copy`` hands the store over, and every handle it
leaves behind reads its own version, whether the new owner lives or not."""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket import graph as graph_module
from expmarket.graph import (Edge, Graph, compute_digest_from_scratch, export_text,
                             graph_from_content)
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.merging import (Choice, ChoicePolicy, Commutation, CommutationPolicy,
                               execute_trade)
from expmarket.patches import Repository, build_patch
from expmarket.pose import Pose
from expmarket.serialize import graph_to_bytes

from _builders import mknode
from test_graph_properties import _Model, _mutate

# _mutate's ops: 0 inserts a node, 1 removes a node with its edges, 2 inserts
# an edge, 3 removes an edge, 4 bumps a path memory
_INSERTS_AND_BUMPS = (0, 2, 4)


def _unbuilt(g: Graph) -> bool:
    """A view whose containers have not been rebuilt yet."""
    return isinstance(g, graph_module._View)


def _check(g: Graph, snap: _Model) -> None:
    assert list(g.nodes()) == list(snap.nodes.values())
    assert list(g.edges()) == snap.edges()
    assert g.edge_count() == len(snap.edges())
    for nid, out in snap.out.items():
        assert g.out_edges(nid) == list(out.values())
        assert set(g.in_edges(nid)) == {o[nid] for o in snap.out.values() if nid in o}
    assert g.digest() == compute_digest_from_scratch(g)
    assert export_text(g) == export_text(graph_from_content(snap.nodes.values(), snap.edges()))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ops=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 99)), max_size=70))
def test_every_handle_reads_its_own_version(seed, ops):
    """Random copies, inserts, removals, bumps, reads and dropped handles,
    then every surviving handle read in a random order."""
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
    handles = [(Graph(), _Model())]
    g = snap = None
    for which, op in ops:
        i = which % len(handles)
        g, snap = handles[i]
        if op < 40:  # mostly inserts and bumps: these are journaled
            _mutate(g, snap, _INSERTS_AND_BUMPS[op % 3], rng, gen)
        elif op < 50:
            _mutate(g, snap, 1 + 2 * (op % 2), rng, gen)
        elif op < 75:
            handles.append((g.copy(), snap.copy()))
        elif op < 85:
            _check(g, snap)
        elif len(handles) > 1:
            del handles[i]  # its store may now have no owner
    del g, snap
    gc.collect()
    rng.shuffle(handles)
    for g, snap in handles:
        _check(g, snap)


def _grown(seed: int, size: int) -> tuple[Graph, _Model]:
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 1)
    g, snap = Graph(), _Model()
    for op in [0] * size + [2] * (2 * size):
        _mutate(g, snap, op, rng, gen)
    return g, snap


def _grow(g: Graph, snap: _Model, seed: int) -> None:
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 2)
    for op in (0, 2, 4, 0, 2, 2, 4):
        _mutate(g, snap, op, rng, gen)


def test_chain_of_three_copies_read_oldest_last_with_the_owner_alive():
    oldest, snap0 = _grown(1, 12)
    middle = oldest.copy()
    snap1 = snap0.copy()
    _grow(middle, snap1, 2)
    newest = middle.copy()
    snap2 = snap1.copy()
    _grow(newest, snap2, 3)
    owner = newest.copy()
    _grow(owner, snap2.copy(), 4)
    assert all(_unbuilt(v) for v in (oldest, middle, newest))
    _check(newest, snap2)
    _check(middle, snap1)
    _check(oldest, snap0)


def test_chain_of_three_copies_read_oldest_last_with_the_owner_gone():
    oldest, snap0 = _grown(5, 12)
    middle = oldest.copy()
    snap1 = snap0.copy()
    _grow(middle, snap1, 6)
    newest = middle.copy()
    snap2 = snap1.copy()
    _grow(newest, snap2, 7)
    owner = newest.copy()
    _grow(owner, snap2.copy(), 8)
    del owner
    gc.collect()
    _check(newest, snap2)
    _check(middle, snap1)
    _check(oldest, snap0)


def test_an_older_view_read_first_leaves_the_newer_one_intact():
    oldest, snap0 = _grown(9, 10)
    newer = oldest.copy()
    snap1 = snap0.copy()
    _grow(newer, snap1, 10)
    owner = newer.copy()
    _grow(owner, snap1.copy(), 11)
    del owner
    gc.collect()
    _check(oldest, snap0)
    _check(newer, snap1)


def test_a_mutated_view_forks_from_its_owner():
    g, snap = _grown(12, 10)
    owner = g.copy()
    owner_snap = snap.copy()
    _grow(owner, owner_snap, 13)
    _grow(g, snap, 14)  # the view is rebuilt, then changed
    _check(g, snap)
    _check(owner, owner_snap)


def test_a_removal_rebuilds_the_views_first():
    g, snap = _grown(15, 10)
    owner = g.copy()
    owner_snap = snap.copy()
    _grow(owner, owner_snap, 16)
    assert _unbuilt(g)
    _mutate(owner, owner_snap, 1, random.Random(17), NodeIdGenerator(17, 0))
    assert not _unbuilt(g)
    _check(g, snap)
    _check(owner, owner_snap)


# -- trades leave their inputs readable ------------------------------------------


def _diverged_repos(seed: int, size: int = 1000) -> tuple[Repository, Repository]:
    """Two 1k-node maps from one chain, each grown by its own 10-node patch."""
    rng = random.Random(derive_seed(seed, "views-base"))
    gen = NodeIdGenerator(seed, 0)
    nodes = [mknode(gen, [rng.uniform(-9, 9) for _ in range(4)], inlier_count=rng.randrange(50),
                    product=rng.randrange(4)) for _ in range(size)]
    edges = [Edge(a.id, b.id, Pose.from_translation(5.0)) for a, b in zip(nodes, nodes[1:])]
    base = graph_from_content(nodes, edges)
    repos = []
    for side in (1, 2):
        side_gen = NodeIdGenerator(seed, side)
        new = [mknode(side_gen, [rng.uniform(-9, 9) for _ in range(4)]) for _ in range(10)]
        links = [Edge(rng.choice(nodes).id, new[0].id, Pose.from_translation(5.0))]
        links += [Edge(a.id, b.id, Pose.from_translation(5.0)) for a, b in zip(new, new[1:])]
        repo = Repository(side, base.copy())
        repo.commit(build_patch(repo.graph, insert_nodes=new, insert_edges=links))
        repos.append(repo)
    return repos[0], repos[1]


def _mutate_outputs(out, seed: int) -> None:
    gen = NodeIdGenerator(seed, 9)
    for repo in (out.left, out.right):
        for nid in sorted(repo.graph.node_ids())[:3]:
            repo.graph.bump_path_memory(nid)
        repo.commit(build_patch(repo.graph, insert_nodes=[mknode(gen, [0.0, 1.0, 2.0, 3.0])]))


def test_trade_inputs_are_read_back_after_the_outputs_change_or_go():
    union = CommutationPolicy(Commutation.UNION)
    match = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.INLIERS))
    for seed, policy in ((0, union), (1, match)):
        left, right = _diverged_repos(seed)
        before = [graph_to_bytes(r.graph) for r in (left, right)]
        out = execute_trade(left, right, policy)
        if policy is union:
            assert _unbuilt(left.graph) and _unbuilt(right.graph)
        _mutate_outputs(out, seed)
        if policy is union:  # inserts and bumps are journaled, not copied
            assert _unbuilt(left.graph) and _unbuilt(right.graph)
        assert [graph_to_bytes(r.graph) for r in (left, right)] == before

        left, right = _diverged_repos(seed + 10)
        before = [graph_to_bytes(r.graph) for r in (left, right)]
        out = execute_trade(left, right, policy)
        _mutate_outputs(out, seed)
        del out
        gc.collect()
        assert [graph_to_bytes(r.graph) for r in (left, right)] == before
        assert left.digest() == compute_digest_from_scratch(left.graph)
