"""Localiser: appearance seeding, localisation, greedy cross-patch matching."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.foray import explain_observations
from expmarket.graph import Edge, Graph, Observation, neighbourhood
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.localiser import (
    LocaliserConfig,
    MatchCounter,
    appearance_seed,
    descriptor_distances,
    localise,
    match_patches,
)
from expmarket.patches import build_patch
from expmarket.pose import Pose

from _builders import chain_graph, mknode, random_graph


def obs(desc, pos=0.0):
    return Observation(descriptor=tuple(desc), true_position=pos, product=0)


def test_seed_single_node_graph():
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[1.0, 1.0]])
    assert appearance_seed(g, [0.0, 0.0], 3) == [nodes[0].id]


def test_seed_exact_match_ranks_first():
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
    ranked = appearance_seed(g, [5.0, 5.0], 2)
    assert ranked[0] == nodes[1].id


def test_seed_matches_exhaustive_sort_oracle():
    for case in range(25):
        g = random_graph(case, 12)
        rng = random.Random(derive_seed("seed-oracle", case))
        query = [rng.uniform(-100, 100) for _ in range(4)]
        oracle = sorted(
            g.node_ids(),
            key=lambda nid: (sum((a - b) ** 2 for a, b in
                                 zip(g.node(nid).descriptor, query)) ** 0.5, nid),
        )[:3]
        assert appearance_seed(g, query, 3) == oracle


def test_seed_tie_break_by_node_id():
    gen = NodeIdGenerator(0, 0)
    twins = sorted((mknode(gen, [2.0, 2.0]) for _ in range(3)), key=lambda n: n.id)
    g = Graph()
    for n in twins:
        g.insert_node(n)
    ranked = appearance_seed(g, [2.0, 2.0], 3)
    assert ranked == [n.id for n in twins]


def test_localise_exact_match_succeeds():
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[0.0, 0.0], [7.0, 7.0]])
    cfg = LocaliserConfig(tau_loc=0.5)
    assert localise(g, obs([7.0, 7.0]), cfg) == nodes[1].id


def test_localise_empty_graph_fails():
    assert localise(Graph(), obs([1.0]), LocaliserConfig()) is None


def test_localise_never_beyond_threshold():
    # nearest node sits at exactly twice the threshold: must fail
    g, nodes = chain_graph(NodeIdGenerator(0, 0), [[0.0, 0.0]])
    cfg = LocaliserConfig(tau_loc=0.5)
    query = [2 * cfg.tau_loc, 0.0]
    nearest = min(
        (sum((a - b) ** 2 for a, b in zip(g.node(n).descriptor, query)) ** 0.5
         for n in g.node_ids())
    )
    assert nearest == 2 * cfg.tau_loc
    assert localise(g, obs(query), cfg) is None


def test_localise_counts_descriptor_comparisons():
    g = random_graph(8, 10)
    counter = MatchCounter()
    localise(g, obs([0.0, 0.0, 0.0, 0.0]), LocaliserConfig(), counter)
    # seed pass scans every node; the candidate pass rescans the ball
    assert counter.ops >= len(g)
    again = MatchCounter()
    localise(g, obs([0.0, 0.0, 0.0, 0.0]), LocaliserConfig(), again)
    assert again.ops == counter.ops  # deterministic op count


def _oracle_localise(graph, observation, cfg, counter):
    """Localisation as it was first written: every distance recomputed, seeds
    by a stable argsort over id-sorted rows, candidates id-sorted."""
    ids = sorted(graph.node_ids())
    if not ids:
        return None
    q = np.asarray(observation.descriptor, dtype=np.float64)
    mat = np.array([graph.node(i).descriptor for i in ids], dtype=np.float64)
    dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
    counter.add(len(ids))
    seeds = [ids[i] for i in np.argsort(dists, kind="stable")[:cfg.seed_k]]
    candidates = set()
    for s in seeds:
        candidates |= neighbourhood(graph, s, cfg.depth)
    cand = sorted(candidates)
    mat = np.array([graph.node(c).descriptor for c in cand], dtype=np.float64)
    dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
    counter.add(len(cand))
    best = int(np.argmin(dists))
    return cand[best] if dists[best] <= cfg.tau_loc else None


# few distinct values, so that descriptors and distances tie (9.0 lies
# beyond every tau_loc drawn), mixed with arbitrary floats, whose distances
# round, so that the seeds and the tau_loc decisions must agree to the bit
_value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 9.0]),
                   st.floats(-10, 10))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       size=st.integers(0, 12), cached=st.integers(0, 12),
       seed_k=st.integers(1, 5), depth=st.integers(0, 2),
       tau_loc=st.sampled_from([0.1, 0.3, 1.0]))
def test_batch_localisation_matches_one_by_one_and_the_oracle(
        data, seed, dim, size, cached, seed_k, depth, tau_loc):
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
    descriptor = st.lists(_value, min_size=dim, max_size=dim)
    nodes = [mknode(gen, data.draw(descriptor)) for _ in range(size)]
    g = Graph()
    for n in nodes[:cached]:
        g.insert_node(n)
    g.descriptor_index()  # the later inserts extend this cached index
    for n in nodes[cached:]:
        g.insert_node(n)
    for a, b in zip(nodes, nodes[1:]):
        if rng.random() < 0.6:
            g.insert_edge(Edge(a.id, b.id, Pose.from_translation(5.0)))
    observations = [obs(d) for d in data.draw(st.lists(descriptor, max_size=6))]
    cfg = LocaliserConfig(tau_loc=tau_loc, seed_k=seed_k, depth=depth)

    batch, single, oracle = MatchCounter(), MatchCounter(), MatchCounter()
    got = explain_observations(g, observations, cfg, batch)
    assert got == [localise(g, o, cfg, single) for o in observations]
    assert got == [_oracle_localise(g, o, cfg, oracle) for o in observations]
    assert batch.ops == single.ops == oracle.ops
    index = g.descriptor_index()
    ids = sorted(g.node_ids())
    for o in observations:
        # each node's distance as the oracle computes it, over a one-row
        # candidate matrix, has the bits of its entry in the index-wide row
        row = descriptor_distances(index.matrix, o.descriptor)
        dists = [np.sqrt(np.sum((np.array([g.node(i).descriptor]) - o.descriptor) ** 2, axis=1))[0]
                 for i in ids]
        assert [row[index.rows[i]].tobytes() for i in ids] == [d.tobytes() for d in dists]
        want = [ids[i] for i in np.argsort(dists, kind="stable")[:seed_k]]
        assert appearance_seed(g, o.descriptor, seed_k) == want


def _patch_of(descs, seed):
    gen = NodeIdGenerator(seed, seed)
    nodes = [mknode(gen, d, inlier_count=i) for i, d in enumerate(descs)]
    return build_patch(Graph(), insert_nodes=nodes), nodes


def test_match_single_candidate():
    left, lnodes = _patch_of([[0.0, 0.0]], 1)
    right, rnodes = _patch_of([[0.05, 0.0]], 2)
    got = match_patches(left, right, LocaliserConfig(tau_m=0.1))
    assert {(p.left, p.right) for p in got.pairs} == {(lnodes[0].id, rnodes[0].id)}


def test_match_disjoint_clusters_empty():
    left, _ = _patch_of([[0.0, 0.0]], 1)
    right, _ = _patch_of([[9.0, 9.0]], 2)
    assert len(match_patches(left, right, LocaliserConfig(tau_m=0.1))) == 0


def _greedy_oracle(lnodes, rnodes, tau):
    """Brute force greedy: globally rank all pairs, accept one-to-one."""
    cand = []
    for ln in lnodes:
        for rn in rnodes:
            d = sum((a - b) ** 2 for a, b in zip(ln.descriptor, rn.descriptor)) ** 0.5
            if d <= tau:
                cand.append((d, *sorted((ln.id, rn.id)), ln.id, rn.id))
    cand.sort(key=lambda t: t[:3])
    used = set()
    pairs = set()
    for d, _, _, lid, rid in cand:
        if lid in used or rid in used:
            continue
        used |= {lid, rid}
        pairs.add((lid, rid))
    return pairs


def test_match_3x3_equals_greedy_oracle():
    for case in range(40):
        rng = random.Random(derive_seed("match-oracle", case))
        descs_l = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(3)]
        descs_r = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(3)]
        left, lnodes = _patch_of(descs_l, case * 2 + 1)
        right, rnodes = _patch_of(descs_r, case * 2 + 2)
        cfg = LocaliserConfig(tau_m=0.4)
        got = {(p.left, p.right) for p in match_patches(left, right, cfg).pairs}
        assert got == _greedy_oracle(lnodes, rnodes, cfg.tau_m)


def test_match_symmetry_under_side_swap():
    for case in range(30):
        rng = random.Random(derive_seed("match-sym", case))
        descs_l = [[rng.uniform(0, 1)] * 2 for _ in range(4)]
        descs_r = [[rng.uniform(0, 1)] * 2 for _ in range(4)]
        left, _ = _patch_of(descs_l, case * 2 + 101)
        right, _ = _patch_of(descs_r, case * 2 + 102)
        cfg = LocaliserConfig(tau_m=0.5)
        ab = {(p.left, p.right) for p in match_patches(left, right, cfg).pairs}
        ba = {(p.right, p.left) for p in match_patches(right, left, cfg).pairs}
        assert ab == ba


def test_match_one_to_one_and_within_threshold():
    left, _ = _patch_of([[0.0, 0.0], [0.01, 0.0], [5.0, 5.0]], 7)
    right, _ = _patch_of([[0.005, 0.0], [5.01, 5.0]], 8)
    cfg = LocaliserConfig(tau_m=0.1)
    got = match_patches(left, right, cfg)
    lefts = [p.left for p in got.pairs]
    rights = [p.right for p in got.pairs]
    assert len(lefts) == len(set(lefts))
    assert len(rights) == len(set(rights))
    assert all(p.distance <= cfg.tau_m for p in got.pairs)


def test_match_op_count_deterministic():
    left, _ = _patch_of([[0.0, 0.0], [1.0, 1.0]], 1)
    right, _ = _patch_of([[0.0, 0.1], [2.0, 2.0], [3.0, 3.0]], 2)
    c1, c2 = MatchCounter(), MatchCounter()
    match_patches(left, right, LocaliserConfig(), c1)
    match_patches(left, right, LocaliserConfig(), c2)
    assert c1.ops == c2.ops == 6  # all cross pairs compared
