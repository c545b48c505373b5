"""Property tests: ``Graph.copy`` gives an independent graph, and every
graph reads its own version whatever its copies do, whether they live or
not. A copy shares each node's adjacency containers and the sorted hash
buffer with the graph it was copied from, and neither graph may change
them in place. In these names the *owner* is the latest copy in a chain
and a *view* an earlier graph it was copied from."""

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.graph import Graph, compute_digest_from_scratch, graph_from_content
from expmarket.ids import NodeIdGenerator

from _oracles import export_text
from test_graph_properties import _Model, _mutate

# _mutate's ops: 0 inserts a node, 1 removes a node with its edges, 2 inserts
# an edge, 3 removes an edge, 4 bumps a path memory
_INSERTS_AND_BUMPS = (0, 2, 4)


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
        if op < 40:  # mostly inserts and bumps
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
    _grow(g, snap, 14)  # both change containers they shared
    _mutate(owner, owner_snap, 1, random.Random(15), NodeIdGenerator(15, 0))  # a node removal
    _mutate(g, snap, 3, random.Random(16), NodeIdGenerator(16, 0))  # an edge removal
    _check(g, snap)
    _check(owner, owner_snap)
