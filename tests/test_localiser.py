"""Localiser: appearance seeding, localisation, greedy cross-patch matching."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.graph import Edge, Graph, Node, Observation, neighbourhood
from expmarket.ids import NodeIdGenerator, derive_seed
import expmarket.localiser as localiser
from expmarket.localiser import (
    LocaliserConfig,
    MatchCounter,
    descriptor_distances,
    localise,
    localise_batch,
    match_patches,
)
from expmarket.patches import build_patch
from expmarket.pose import Pose

from _builders import chain_graph, mknode, random_graph


def obs(desc, pos=0.0):
    return Observation(descriptor=tuple(desc), true_position=pos, product=0)


def appearance_seed(g, descriptor, k, counter=None):
    """``_seed_batch`` of one query: the ids of the k nearest nodes, ties by id."""
    queries = np.array([descriptor], dtype=np.float64)
    return [nid for _, nid in localiser._seed_batch(g.descriptor_index(), queries, k, counter)[0]]


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


@pytest.mark.parametrize("threshold", ["tau_loc", "tau_m"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_config_refuses_threshold_not_finite_and_positive(threshold, value):
    """tau_m=inf would pair every cross pair for merging, and tau_loc=nan
    would make every localisation fail without a word."""
    with pytest.raises(ValueError, match="thresholds must be"):
        LocaliserConfig(**{threshold: value})


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
        candidates |= neighbourhood(graph, [s], cfg.depth)
    cand = sorted(candidates)
    mat = np.array([graph.node(c).descriptor for c in cand], dtype=np.float64)
    dists = np.sqrt(np.sum((mat - q) ** 2, axis=1))
    counter.add(len(cand))
    best = int(np.argmin(dists))
    return cand[best] if dists[best] <= cfg.tau_loc else None


# few distinct values, so that descriptors and distances tie (9.0 lies
# beyond every tau_loc drawn), large ones, against which the prefilter's
# estimate of a small distance is mostly rounding, mixed with arbitrary
# floats, whose distances round, so that the seeds and the tau_loc
# decisions must agree to the bit
_value = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 9.0, 1e6, -1e6]),
                   st.floats(-10, 10))


# numpy sums fewer than 8 terms in order and 8 or more pairwise; the world's
# descriptors have 16
@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       dim=st.sampled_from([1, 2, 3, 8, 16, 17]),
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
    got = localise_batch(g, observations, cfg, batch)
    assert got == [localise(g, o, cfg, single) for o in observations]
    assert got == [_oracle_localise(g, o, cfg, oracle) for o in observations]
    assert batch.ops == single.ops == oracle.ops
    index = g.descriptor_index()
    rows = {nid: row for row, nid in enumerate(index.ids)}
    ids = sorted(g.node_ids())
    for o in observations:
        # each node's distance as the oracle computes it, over a one-row
        # candidate matrix, has the bits of its entry in the index-wide row
        row = descriptor_distances(index.matrix, o.descriptor)
        dists = [np.sqrt(np.sum((np.array([g.node(i).descriptor]) - o.descriptor) ** 2, axis=1))[0]
                 for i in ids]
        assert [row[rows[i]].tobytes() for i in ids] == [d.tobytes() for d in dists]
        want = [ids[i] for i in np.argsort(dists, kind="stable")[:seed_k]]
        assert appearance_seed(g, o.descriptor, seed_k) == want


def _graph_of(descriptors):
    """A chain over nodes with the given descriptors, ids in ascending order."""
    gen = NodeIdGenerator(5, 0)
    ids = sorted(gen.next_id() for _ in descriptors)
    g, nodes = Graph(), []
    for nid, d in zip(ids, descriptors):
        nodes.append(Node(id=nid, descriptor=tuple(d)))
        g.insert_node(nodes[-1])
    for a, b in zip(nodes, nodes[1:]):
        g.insert_edge(Edge(a.id, b.id, Pose.from_translation(5.0)))
    return g, ids


def _axis(dim, *lead):
    return list(lead) + [0.0] * (dim - len(lead))


def test_equal_distances_rank_by_id():
    gen = NodeIdGenerator(5, 0)
    small, large = sorted(gen.next_id() for _ in range(2))
    for dim in (1, 2, 16, 17):
        # both nodes lie at exactly 1.0; the larger id is inserted first
        g = Graph()
        g.insert_node(Node(id=large, descriptor=tuple(_axis(dim, 1.0))))
        g.insert_node(Node(id=small, descriptor=tuple(_axis(dim, -1.0))))
        assert appearance_seed(g, _axis(dim), 1) == [small]
        assert appearance_seed(g, _axis(dim), 2) == [small, large]
        cfg = LocaliserConfig(tau_loc=1.0, seed_k=2, depth=0)
        assert localise_batch(g, [obs(_axis(dim))] * 3, cfg) == [small] * 3


def test_runner_up_one_ulp_farther_is_not_a_seed():
    for dim in (1, 8, 16, 17):
        for base in (0.0, 1e6):
            q = _axis(dim, base)
            # the runner-up lies one ulp farther out along the first axis:
            # at 0 its distance is one ulp above 1.0, at 1e6 the estimate
            # cannot tell the two apart. The smaller id is the farther node,
            # so only the distance decides.
            far_x = np.nextafter(base + 1.0, np.inf)
            g, ids = _graph_of([_axis(dim, far_x), _axis(dim, base + 1.0)])
            near, far = ids[1], ids[0]
            d = descriptor_distances(g.descriptor_index().matrix, q).tolist()
            assert d[1] == 1.0 < d[0]
            if base == 0.0:
                assert d[0] == np.nextafter(1.0, np.inf)
            assert appearance_seed(g, q, 1) == [near]
            assert appearance_seed(g, q, 2) == [near, far]
            cfg = LocaliserConfig(tau_loc=1.0, seed_k=1, depth=1)
            assert localise(g, obs(q), cfg) == near
            alone, _ = _graph_of([_axis(dim, far_x)])
            assert localise(alone, obs(q), cfg) is None  # one ulp beyond tau_loc


def test_seeds_exact_where_the_estimate_misranks():
    """Nodes within 0.05 of each query, all about 1e6 from the origin: the
    estimate |m|² - 2·m·q + |q|² is off by far more than the gaps between
    the nearest distances, so it misranks them; the seeds must not be."""
    rng = np.random.default_rng(3)
    base = rng.uniform(-1e6, 1e6, 16)
    g, _ = _graph_of((base + rng.uniform(-0.05, 0.05, (300, 16))).tolist())
    matrix = g.descriptor_index().matrix
    queries = (base + rng.uniform(-0.05, 0.05, (12, 16))).tolist()
    cfg = LocaliserConfig(tau_loc=0.1, seed_k=3, depth=1)
    misranked = 0
    for q in queries:
        d = descriptor_distances(matrix, q)
        est = np.sum(matrix * matrix, axis=1) - 2.0 * (matrix @ q) + np.dot(q, q)
        top = set(np.argsort(d, kind="stable")[:3].tolist())
        misranked += top != set(np.argsort(est, kind="stable")[:3].tolist())
        assert appearance_seed(g, q, 3) == [g.descriptor_index().ids[i]
                                           for i in np.argsort(d, kind="stable")[:3]]
    assert misranked
    counter, oracle = MatchCounter(), MatchCounter()
    got = localise_batch(g, [obs(q) for q in queries], cfg, counter)
    assert got == [_oracle_localise(g, obs(q), cfg, oracle) for q in queries]
    assert counter.ops == oracle.ops


def test_seed_k_at_least_the_map_ranks_every_node():
    g, ids = _graph_of([[3.0], [1.0], [2.0]])
    for k in (3, 4, 10):
        assert appearance_seed(g, [0.0], k) == [ids[1], ids[2], ids[0]]
        counter = MatchCounter()
        cfg = LocaliserConfig(tau_loc=1.0, seed_k=k, depth=0)
        assert localise_batch(g, [obs([0.0]), obs([5.0])], cfg, counter) == [ids[1], None]
        assert counter.ops == 2 * (3 + 3)  # every node, then every seed's ball


def test_empty_map_and_empty_batch():
    counter = MatchCounter()
    cfg = LocaliserConfig()
    assert localise_batch(Graph(), [obs([1.0]), obs([2.0])], cfg, counter) == [None, None]
    assert appearance_seed(Graph(), [1.0], 3, counter) == []
    g, _ = _graph_of([[1.0], [2.0]])
    assert localise_batch(g, [], cfg, counter) == []
    assert counter.ops == 0


def test_batch_computes_exact_distances_for_few_rows(monkeypatch):
    """32 observations against a 2,000-node map: the exact-distance step sees
    far fewer rows than one map's worth, not a map's worth per observation."""
    rng = np.random.default_rng(11)
    size, dim = 2000, 16
    g, _ = _graph_of(rng.uniform(-1.0, 1.0, (size, dim)).tolist())
    index = g.descriptor_index()
    picked = rng.choice(size, 24, replace=False)
    queries = np.concatenate((index.matrix[picked] + rng.normal(0.0, 0.01, (24, dim)),
                              rng.uniform(-1.0, 1.0, (8, dim))))
    observations = [obs(q) for q in queries.tolist()]
    cfg = LocaliserConfig()
    seen = []
    real = localiser.descriptor_distances

    def recording(matrix, descriptors):
        seen.append(len(matrix))
        return real(matrix, descriptors)

    monkeypatch.setattr(localiser, "descriptor_distances", recording)
    counter, oracle = MatchCounter(), MatchCounter()
    got = localise_batch(g, observations, cfg, counter)
    monkeypatch.undo()
    assert got == [_oracle_localise(g, o, cfg, oracle) for o in observations]
    assert counter.ops == oracle.ops
    assert sum(got[i] is not None for i in range(24)) == 24
    assert seen and sum(seen) < size


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
