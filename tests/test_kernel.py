"""The trade kernel against its reference versions (``_kernel_reference``).

``merging.commute`` and ``merging._side_patch``, ``localiser.match_patches``
and ``graph._spliced`` take shortcuts the references do not: a MATCH merge
that pairs nothing is the UNION merge, carried edges that touch no drop pass
through, pairs are read out of numpy at once, and an insert-only splice
sorts no cuts. Each must give exactly what its reference gives.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _kernel_reference as ref
from _builders import mknode
from expmarket.graph import Edge, Graph, _spliced
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.integrity import _toy_patch
from expmarket.localiser import LocaliserConfig, match_patches
from expmarket.merging import (PURE_CHOICES, ChoicePolicy, Commutation,
                               CommutationPolicy, _side_patch, commute, execute_trade)
from expmarket.patches import Inserts, Repository, diff
from expmarket.pose import Pose

POLICIES = [CommutationPolicy(Commutation.UNION)] + [
    CommutationPolicy(Commutation.MATCH, ChoicePolicy(c))
    for c in sorted(PURE_CHOICES, key=lambda c: c.value)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), robots=st.integers(2, 5), forays=st.integers(1, 3),
       overlap=st.floats(0.0, 1.0), policy=st.sampled_from(POLICIES))
def test_commute_equals_the_reference_on_every_trade_of_a_team(seed, robots, forays,
                                                               overlap, policy):
    """A team makes toy forays with near-duplicates and trades all pairs:
    every divergent trade's patches equal the reference's, in content and
    in both states, and so do the matches and drops."""
    rng = random.Random(seed)
    repos = [Repository(i) for i in range(robots)]
    idgens = [NodeIdGenerator(derive_seed(seed, "kernel"), i) for i in range(robots)]
    dup_scale = policy.localiser.tau_m / 4.0
    for k in range(1, forays + 1):
        pool = []
        for i, repo in enumerate(repos):
            patch = _toy_patch(repo, rng.randrange(0, 9), rng, idgens[i], k, pool,
                               overlap if i else 0.0, dup_scale)
            pool = sorted(patch.insert_nodes.values(), key=lambda n: n.id)
            repo.commit(patch)
        for i in range(robots):
            for j in range(i + 1, robots):
                left, right = repos[i], repos[j]
                if left.digest() != right.digest():
                    incoming, outgoing = diff(left.graph, right.graph)
                    want = ref.commute(incoming, outgoing, policy, left.graph, right.graph)
                    got = commute(incoming, outgoing, policy, left.graph, right.graph)
                    assert got == want
                    assert (got.drops_left, got.drops_right) == \
                        (want.drops_left, want.drops_right)
                execute_trade(left, right, policy)


def _pose(rng: random.Random) -> Pose:
    return Pose.from_translation(rng.choice([1.0, 2.0, rng.uniform(0, 9)]))


def _add_edges(rng: random.Random, graph: Graph, ends: list, count: int) -> None:
    for _ in range(count if len(ends) > 1 else 0):
        src, dst = rng.sample(ends, 2)
        if not graph.has_edge(src, dst):
            graph.insert_edge(Edge(src, dst, _pose(rng)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), shared=st.integers(0, 6), own=st.integers(1, 6),
       density=st.integers(0, 20))
def test_side_patch_equals_the_reference_under_any_drops(seed, shared, own, density):
    """Two graphs with a common part and dense edges among their own and
    common nodes, and drops paired at random across the diff: carried edges
    into dropped nodes, drops on both sides, and rewired edges that meet
    carried ones or each other."""
    rng = random.Random(seed)
    gen = NodeIdGenerator(derive_seed(seed, "side-patch"), 0)
    base = Graph()
    for _ in range(shared):
        base.insert_node(mknode(gen, [rng.random()]))
    sides = []
    for _ in range(2):
        side = base.copy()
        for _ in range(own):
            side.insert_node(mknode(gen, [rng.random()]))
        _add_edges(rng, side, sorted(side.node_ids()), density)
        sides.append(side)
    left, right = sides
    incoming, outgoing = diff(left, right)
    theirs, mine = list(incoming.insert_nodes), list(outgoing.insert_nodes)
    rng.shuffle(theirs)
    drops = {}
    for a, b in zip(mine, theirs):
        if rng.random() < 0.7:
            keep, drop = (a, b) if rng.random() < 0.5 else (b, a)
            drops[drop] = keep
    for side, carried in ((left, incoming), (right, outgoing)):
        assert _side_patch(side, carried, drops) == ref.side_patch(side, carried, drops)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), n_left=st.integers(0, 12), n_right=st.integers(0, 12),
       overlap=st.floats(0.0, 1.0), tau_m=st.sampled_from([0.05, 0.12, 0.5]))
def test_match_patches_equals_the_reference(seed, n_left, n_right, overlap, tau_m):
    """Near-duplicates, exact duplicates (tied distances) and far nodes."""
    rng = random.Random(seed)
    gen = NodeIdGenerator(derive_seed(seed, "match"), 0)
    lnodes, rnodes = [], []
    for nodes, count in ((lnodes, n_left), (rnodes, n_right)):
        for _ in range(count):
            if lnodes and rng.random() < overlap:
                src = rng.choice(lnodes).descriptor
                jitter = rng.choice([0.0, 0.01, 0.1])
                desc = [v + rng.uniform(-jitter, jitter) for v in src]
            else:
                desc = [rng.uniform(-2, 2) for _ in range(4)]
            nodes.append(mknode(gen, desc))
    left = Inserts({n.id: n for n in lnodes}, frozenset())
    right = Inserts({n.id: n for n in rnodes}, frozenset())
    cfg = LocaliserConfig(tau_m=tau_m)
    assert match_patches(left, right, cfg) == ref.match_patches(left, right, cfg)
    assert match_patches(right, left, cfg) == ref.match_patches(right, left, cfg)


_hashes = st.lists(st.binary(min_size=32, max_size=32), unique=True, max_size=40)


@settings(max_examples=300, deadline=None)
@given(held=_hashes, fresh=_hashes, mode=st.sampled_from(["insert", "delete", "mixed"]),
       data=st.data())
def test_spliced_equals_a_sorted_join(held, fresh, mode, data):
    added = [h for h in fresh if h not in held] if mode != "delete" else []
    dropped = data.draw(st.lists(st.sampled_from(held), unique=True)) \
        if held and mode != "insert" else []
    buf = b"".join(sorted(held))
    want = b"".join(sorted((set(held) - set(dropped)) | set(added)))
    assert _spliced(buf, dropped, added) == want == ref.spliced(buf, dropped, added)


@given(held=_hashes, absent=st.binary(min_size=32, max_size=32))
def test_spliced_refuses_an_absent_dropped_hash(held, absent):
    if absent in held:
        return
    with pytest.raises(KeyError):
        _spliced(b"".join(sorted(held)), [absent], [])


def test_pose_is_an_immutable_record_hashed_as_its_fields():
    pose = Pose(1.5, -2.0, 0.25, 1.0, 0.0, 0.5, -0.5)
    assert hash(pose) == hash(tuple([1.5, -2.0, 0.25, 1.0, 0.0, 0.5, -0.5]))
    assert hash(Pose()) == hash((0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert repr(Pose.from_translation(5)) == \
        "Pose(tx=5.0, ty=0.0, tz=0.0, qw=1.0, qx=0.0, qy=0.0, qz=0.0)"
    with pytest.raises(AttributeError):
        pose.tx = 0.0
    edge = Edge(3, 4, pose)
    assert hash(edge) == hash((3, 4, pose))
