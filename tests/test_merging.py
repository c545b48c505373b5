"""Merge engine: choice policies, commutation, reconnection, trade merges."""

import random

import pytest

from expmarket import merging
from expmarket.graph import Edge, Graph, compute_digest_from_scratch, connected_components
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.localiser import LocaliserConfig, MatchCounter
from expmarket.merging import (
    Choice,
    ChoicePolicy,
    Commutation,
    CommutationPolicy,
    IntegrityViolation,
    NonScoringPolicy,
    NonSymmetricPolicy,
    choose,
    commute,
    execute_trade,
    gamma_score,
    trade_merge,
)
from expmarket.patches import Repository, apply_patch, build_patch, diff, patches_equal
from expmarket.pose import Pose
from expmarket.serialize import graph_to_bytes, patch_wire_size

from _builders import built, chain_graph, mknode, random_graph, random_insert_patch

INLIERS = ChoicePolicy(Choice.INLIERS)


def union_policy():
    return CommutationPolicy(Commutation.UNION)


def match_policy(tau_m=0.12, choice=Choice.INLIERS):
    return CommutationPolicy(Commutation.MATCH, ChoicePolicy(choice),
                             LocaliserConfig(tau_m=tau_m))


# -- gamma and choose --------------------------------------------------------


def test_gamma_projects_metadata_fields():
    gen = NodeIdGenerator(0, 0)
    node = mknode(gen, [0.0], inlier_count=42, fabmap_score=0.8, path_memory=0)
    assert gamma_score(node, INLIERS) == 42.0
    assert gamma_score(node, ChoicePolicy(Choice.FABMAP)) == 0.8
    assert gamma_score(node, ChoicePolicy(Choice.PATH_MEMORY)) == 0.0


def test_gamma_rejects_non_scoring():
    gen = NodeIdGenerator(0, 0)
    node = mknode(gen, [0.0])
    with pytest.raises(NonScoringPolicy):
        gamma_score(node, ChoicePolicy(Choice.LHS))
    with pytest.raises(NonScoringPolicy):
        gamma_score(node, ChoicePolicy(Choice.COIN, rng=random.Random(0)))


def test_choose_strict_order_and_tie_break():
    gen = NodeIdGenerator(0, 0)
    a = mknode(gen, [0.0], inlier_count=3)
    b = mknode(gen, [1.0], inlier_count=2)
    assert choose(a, b, INLIERS)[0] is a
    assert choose(b, a, INLIERS)[0] is a  # argument-order invariant

    t1 = mknode(gen, [0.0], inlier_count=5)
    t2 = mknode(gen, [1.0], inlier_count=5)
    lo, hi = sorted((t1, t2), key=lambda n: n.id)
    assert choose(t1, t2, INLIERS)[0] is lo
    assert choose(t2, t1, INLIERS)[0] is lo


def test_choose_lhs_depends_on_argument_order():
    gen = NodeIdGenerator(0, 0)
    a = mknode(gen, [0.0], inlier_count=1)
    b = mknode(gen, [1.0], inlier_count=9)
    lhs = ChoicePolicy(Choice.LHS)
    assert choose(a, b, lhs)[0] is a
    assert choose(b, a, lhs)[0] is b  # the versioning mischief


# -- fixtures for merges -------------------------------------------------------


def fig2_repos(near_duplicate=False, mine_quality=5, theirs_quality=9):
    """Common chain n1-n3; each side extends by two nodes. With
    ``near_duplicate`` the first new nodes of both sides are the same place."""
    gen = NodeIdGenerator(42, 0)
    base, base_nodes = chain_graph(gen, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])

    def extend(first_desc, second_desc, quality):
        side = base.copy()
        n_a = mknode(gen, first_desc, inlier_count=quality)
        n_b = mknode(gen, second_desc, inlier_count=quality)
        side.insert_node(n_a)
        side.insert_node(n_b)
        side.insert_edge(Edge(base_nodes[2].id, n_a.id, Pose.from_translation(5)))
        side.insert_edge(Edge(n_a.id, n_b.id, Pose.from_translation(5)))
        return side, (n_a, n_b)

    mine, mine_nodes = extend([10.0, 10.0], [11.0, 11.0], mine_quality)
    theirs_first = [10.0, 10.05] if near_duplicate else [20.0, 20.0]
    theirs, theirs_nodes = extend(theirs_first, [21.0, 21.0], theirs_quality)
    return (Repository(0, mine), Repository(1, theirs),
            base_nodes, mine_nodes, theirs_nodes)


# -- commute -------------------------------------------------------------------


def test_commute_union_passes_diff_through():
    left, right, *_ = fig2_repos()
    incoming, outgoing = diff(left.graph, right.graph)
    pair = commute(incoming, outgoing, union_policy(), left.graph, right.graph)
    for patch, inserts, side in ((pair.for_left, incoming, left.graph),
                                 (pair.for_right, outgoing, right.graph)):
        want = built(side, inserts)
        assert patches_equal(patch, want)
        assert list(patch.insert_nodes) == list(inserts.insert_nodes)
        assert (patch.input_state, patch.output_state) == (want.input_state, want.output_state)
    u1 = apply_patch(left.graph, pair.for_left)
    u2 = apply_patch(right.graph, pair.for_right)
    assert u1.digest() == u2.digest()
    assert len(u1) == 7


def test_commute_match_drops_low_quality_twin():
    left, right, base_nodes, mine_nodes, theirs_nodes = fig2_repos(
        near_duplicate=True, mine_quality=5, theirs_quality=9)
    incoming, outgoing = diff(left.graph, right.graph)
    pair = commute(incoming, outgoing, match_policy(), left.graph, right.graph)
    u1 = apply_patch(left.graph, pair.for_left)
    u2 = apply_patch(right.graph, pair.for_right)
    assert u1.digest() == u2.digest()
    # the matched pair resolved to theirs (higher inliers): 6 nodes remain
    assert len(u1) == 6
    assert mine_nodes[0].id not in u1
    assert theirs_nodes[0].id in u1


def test_commute_match_hand_enumerated_outcome():
    # keep = mine (higher gamma): both sides end with mine's twin kept
    left, right, base_nodes, mine_nodes, theirs_nodes = fig2_repos(
        near_duplicate=True, mine_quality=9, theirs_quality=5)
    incoming, outgoing = diff(left.graph, right.graph)
    pair = commute(incoming, outgoing, match_policy(), left.graph, right.graph)
    u1 = apply_patch(left.graph, pair.for_left)
    u2 = apply_patch(right.graph, pair.for_right)
    expected = {n.id for n in base_nodes} | {mine_nodes[0].id, mine_nodes[1].id,
                                             theirs_nodes[1].id}
    assert u1.node_ids() == expected
    assert u2.node_ids() == expected
    # dropped node's successor is rewired onto the keeper
    assert u1.has_edge(mine_nodes[0].id, theirs_nodes[1].id)


def test_commute_empty_diffs():
    left, right, *_ = fig2_repos()
    incoming, outgoing = diff(left.graph, left.graph.copy())
    pair = commute(incoming, outgoing, match_policy(), left.graph, left.graph.copy())
    assert pair.for_left.is_empty() and pair.for_right.is_empty()


# -- trade_merge ---------------------------------------------------------------


def test_trade_merge_fig2_union():
    left, right, *_ = fig2_repos()
    committed = len(left.history)
    l2, r2, stats = trade_merge(left, right, union_policy())
    assert l2.digest() == r2.digest()
    assert len(l2.graph) == 7
    assert stats.nodes_in == 2
    assert stats.matches == 0
    assert len(l2.history) == committed + 1


def test_trade_merge_identical_repos_noop():
    left, right, *_ = fig2_repos()
    merged_l, merged_r, _ = trade_merge(left, right, union_policy())
    merged = merged_l.digest(), len(merged_l.history)
    again_l, again_r, stats = trade_merge(merged_l, merged_r, union_policy())
    assert stats.nodes_in == 0 and stats.nodes_deleted == 0
    assert (again_l.digest(), len(again_l.history)) == merged  # empty patches not recorded


def test_trade_merge_rejects_asymmetric_policies():
    left, right, *_ = fig2_repos()
    lhs = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                            LocaliserConfig())
    with pytest.raises(NonSymmetricPolicy):
        trade_merge(left, right, lhs)


def test_trade_merge_lhs_diverges_when_allowed():
    left, right, *_ = fig2_repos(near_duplicate=True)
    lhs = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                            LocaliserConfig(), allow_asymmetric=True)
    l2, r2, _ = trade_merge(left, right, lhs, enforce=False)
    assert l2.digest() != r2.digest()


def test_trade_merge_enforces_convergence():
    from expmarket.merging import IntegrityViolation

    left, right, *_ = fig2_repos(near_duplicate=True)
    lhs = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                            LocaliserConfig(), allow_asymmetric=True)
    with pytest.raises(IntegrityViolation):
        trade_merge(left, right, lhs)  # enforce on: divergence is an error


def test_trade_merge_coin_diverges_eventually():
    coin_rng = random.Random(123)
    diverged = False
    for case in range(8):
        left, right, *_ = fig2_repos(near_duplicate=True)
        policy = CommutationPolicy(Commutation.MATCH,
                                   ChoicePolicy(Choice.COIN, rng=coin_rng),
                                   LocaliserConfig(), allow_asymmetric=True)
        l2, r2, _ = trade_merge(left, right, policy, enforce=False)
        if l2.digest() != r2.digest():
            diverged = True
    assert diverged


def _random_divergent_repos(case: int, overlap: float):
    rng = random.Random(derive_seed("merge-prop", case))
    gen = NodeIdGenerator(derive_seed("merge-prop-ids", case), 0)
    base, base_nodes = chain_graph(
        gen, [[rng.uniform(-50, 50) for _ in range(3)]
              for _ in range(rng.randrange(1, 4))])

    def extend(n_new, dup_sources):
        side = base.copy()
        prev = None
        new_nodes = []
        for j in range(n_new):
            if dup_sources and rng.random() < overlap:
                src = rng.choice(dup_sources)
                desc = [v + rng.uniform(-0.02, 0.02) for v in src.descriptor]
            else:
                desc = [rng.uniform(-50, 50) for _ in range(3)]
            node = mknode(gen, desc, inlier_count=rng.randrange(100),
                          fabmap_score=rng.random(), path_memory=rng.randrange(6))
            side.insert_node(node)
            if prev is None:
                side.insert_edge(Edge(rng.choice(base_nodes).id, node.id,
                                      Pose.from_translation(5)))
            else:
                side.insert_edge(Edge(prev.id, node.id, Pose.from_translation(5)))
            prev = node
            new_nodes.append(node)
        return side, new_nodes

    mine, mine_new = extend(rng.randrange(1, 7), [])
    theirs, _ = extend(rng.randrange(1, 7), mine_new)
    return Repository(0, mine), Repository(1, theirs)


def test_trade_merge_convergence_property_1000_cases():
    policies = {
        Choice.INLIERS: match_policy(tau_m=0.1, choice=Choice.INLIERS),
        Choice.FABMAP: match_policy(tau_m=0.1, choice=Choice.FABMAP),
        Choice.PATH_MEMORY: match_policy(tau_m=0.1, choice=Choice.PATH_MEMORY),
    }
    kinds = list(policies.values()) + [union_policy()]
    for case in range(1000):
        left, right = _random_divergent_repos(case, overlap=0.5)
        policy = kinds[case % len(kinds)]
        l2, r2, _ = trade_merge(left, right, policy)
        assert l2.digest() == r2.digest()


def test_trade_merge_commutativity_merge_order_irrelevant():
    # merging A's content then B's equals merging B's then A's
    for case in range(200):
        rng = random.Random(derive_seed("order", case))
        repo_a, repo_b = _random_divergent_repos(case, overlap=0.4)
        repo_c = Repository(2, repo_a.graph.copy())
        policy = match_policy(tau_m=0.1)

        one, b1, _ = trade_merge(repo_c.copy(), repo_b.copy(), policy)
        two, a1, _ = trade_merge(one, repo_a.copy(), policy)

        alt1, a2, _ = trade_merge(repo_c.copy(), repo_a.copy(), policy)
        alt2, b2, _ = trade_merge(alt1, repo_b.copy(), policy)

        assert two.digest() == alt2.digest()


def test_trade_merge_idempotent_without_new_forays():
    for case in range(50):
        left, right = _random_divergent_repos(case + 3000, overlap=0.5)
        policy = match_policy(tau_m=0.1)
        l1, r1, _ = trade_merge(left, right, policy)
        merged = l1.digest(), r1.digest()
        l2, r2, stats = trade_merge(l1, r1, policy)
        assert stats.nodes_in == 0 and stats.nodes_deleted == 0
        assert (l2.digest(), r2.digest()) == merged


def test_match_never_larger_than_union():
    for case in range(100):
        left, right = _random_divergent_repos(case + 600, overlap=0.6)
        lu, ru, _ = trade_merge(left.copy(), right.copy(), union_policy())
        lm, rm, _ = trade_merge(left.copy(), right.copy(), match_policy(tau_m=0.1))
        assert len(lm.graph) <= len(lu.graph)


def test_match_does_not_fragment_the_map():
    for case in range(100):
        left, right = _random_divergent_repos(case + 4000, overlap=0.7)
        lu, _, _ = trade_merge(left.copy(), right.copy(), union_policy())
        lm, _, _ = trade_merge(left.copy(), right.copy(), match_policy(tau_m=0.1))
        assert len(connected_components(lm.graph)) <= \
            len(connected_components(lu.graph))


def test_match_keeps_the_keepers_edge_when_a_rewired_edge_collides_with_it():
    """N is shared; the left side adds D with N->D, the right side adds D's
    near twin K (the keeper) with N->K at another pose. Rewiring N->D onto K
    on the left collides with the carried N->K, which must win: the right
    side keeps its own N->K."""
    for dropped_pose, kept_pose in ((9.0, 1.0), (1.0, 9.0)):
        gen = NodeIdGenerator(7, 0)
        base, (shared,) = chain_graph(gen, [[0.0, 0.0]])
        left, right = base.copy(), base.copy()
        dropped = mknode(gen, [10.0, 10.0], inlier_count=1)
        keeper = mknode(gen, [10.0, 10.01], inlier_count=50)
        left.insert_node(dropped)
        left.insert_edge(Edge(shared.id, dropped.id, Pose.from_translation(dropped_pose)))
        right.insert_node(keeper)
        right.insert_edge(Edge(shared.id, keeper.id, Pose.from_translation(kept_pose)))
        out = execute_trade(Repository(0, left), Repository(1, right), match_policy())
        assert out.pair.drops_left == {dropped.id: keeper.id}
        for repo in (out.left, out.right):
            assert repo.graph.edge(shared.id, keeper.id).pose == Pose.from_translation(kept_pose)
            assert dropped.id not in repo.graph
        assert out.left.digest() == out.right.digest()


def _anchored_repos(case: int):
    """Both sides extend a shared base with new nodes, each anchored to a
    base node by an edge of random direction and pose; about half the right
    side's nodes are near twins of left-side nodes."""
    rng = random.Random(derive_seed("anchored", case))
    gen = NodeIdGenerator(derive_seed("anchored-ids", case), 0)
    base, base_nodes = chain_graph(gen, [[rng.uniform(-50, 50) for _ in range(3)]
                                         for _ in range(rng.randrange(1, 4))])

    def extend(n_new, twins):
        side = base.copy()
        new_nodes = []
        for _ in range(n_new):
            if twins and rng.random() < 0.5:
                desc = [v + rng.uniform(-0.02, 0.02) for v in rng.choice(twins).descriptor]
            else:
                desc = [rng.uniform(-50, 50) for _ in range(3)]
            node = mknode(gen, desc, inlier_count=rng.randrange(100))
            side.insert_node(node)
            anchor = rng.choice(base_nodes).id
            src, dst = (anchor, node.id) if rng.random() < 0.5 else (node.id, anchor)
            side.insert_edge(Edge(src, dst, Pose.from_translation(rng.choice([1.0, 5.0, 9.0]))))
            new_nodes.append(node)
        return side, new_nodes

    left, left_new = extend(rng.randrange(1, 5), [])
    right, _ = extend(rng.randrange(1, 5), left_new)
    return Repository(0, left), Repository(1, right)


def test_match_converges_with_anchor_edges_of_mixed_poses():
    for case in range(300):
        left, right = _anchored_repos(case)
        out = execute_trade(left, right, match_policy(tau_m=0.1))
        assert out.left.digest() == out.right.digest()


def test_trade_merge_product_scope_restricts_transfer():
    gen = NodeIdGenerator(7, 0)
    base = Graph()
    mine = base.copy()
    theirs = base.copy()
    wanted = mknode(gen, [1.0, 1.0], product=2)
    unwanted = mknode(gen, [9.0, 9.0], product=5)
    theirs.insert_node(wanted)
    theirs.insert_node(unwanted)
    l2, r2, stats = trade_merge(Repository(0, mine), Repository(1, theirs),
                                union_policy(), products={2})
    assert wanted.id in l2.graph
    assert unwanted.id not in l2.graph
    assert stats.nodes_in == 1


def test_trade_returns_its_own_inputs_advanced():
    """A trade commits each side's non-empty patch to the repository it was
    given, in place, and returns those same repositories."""
    for case in range(40):
        left, right = _random_divergent_repos(case + 5000, overlap=0.5)
        policy = match_policy(tau_m=0.1) if case % 2 else union_policy()
        pre = [(r.graph.copy(), len(r.history)) for r in (left, right)]
        out = execute_trade(left, right, policy)
        assert out.left is left and out.right is right
        for repo, (graph, committed), patch in zip((left, right), pre,
                                                   (out.pair.for_left, out.pair.for_right)):
            assert graph_to_bytes(repo.graph) == graph_to_bytes(apply_patch(graph, patch))
            assert repo.digest() == compute_digest_from_scratch(repo.graph)
            assert len(repo.history) == committed + (not patch.is_empty())
            assert repo.history.patches[-1] is patch or patch.is_empty()
        assert left.digest() == right.digest()
        merged = [(r.digest(), len(r.history)) for r in (left, right)]
        again = execute_trade(left, right, policy)  # nothing to exchange: nothing recorded
        assert again.left is left and again.right is right
        assert [(r.digest(), len(r.history)) for r in (left, right)] == merged


def test_trade_of_one_shared_graph_is_a_noop():
    left, _, *_ = fig2_repos()
    shared = left.graph
    counter = MatchCounter()
    out = execute_trade(Repository(0, shared), Repository(1, shared), match_policy(),
                        counter=counter)
    assert out.pair.for_left.is_empty() and out.pair.for_right.is_empty()
    assert counter.ops == 0  # nothing to exchange, so nothing was matched
    assert out.left.graph is not shared and out.right.graph is not out.left.graph
    assert out.left.digest() == out.right.digest() == shared.digest()
    assert len(out.left.history) == 0
    assert out.stats.bytes == 2 * patch_wire_size(out.pair.for_left)


@pytest.mark.parametrize("products", [None, {0}])
@pytest.mark.parametrize("policy", [union_policy(), match_policy()], ids=["union", "match"])
def test_a_trade_between_equal_digests_reaches_no_diff_or_commute(monkeypatch, policy, products):
    """Equal digests decide the trade at once: two empty patches, nothing
    committed, nothing matched, and the wire size of an empty patch."""

    def refused(*args, **kwargs):
        raise AssertionError("a trade between equal digests was diffed")

    g = random_graph(7, 15)
    left, right = Repository(0, g), Repository(1, Graph())
    right.commit(build_patch(right.graph, insert_nodes=list(g.nodes())[::-1],
                             insert_edges=g.edges()))
    assert left.digest() == right.digest()
    monkeypatch.setattr(merging, "diff", refused)
    monkeypatch.setattr(merging, "commute", refused)
    counter = MatchCounter()
    out = execute_trade(left, right, policy, products=products, counter=counter)
    assert out.pair.for_left.is_empty() and out.pair.for_right.is_empty()
    assert (len(left.history), len(right.history)) == (0, 1)
    assert counter.ops == 0
    assert out.stats.bytes_in == patch_wire_size(build_patch(g))


def _insert_on_both_sides(left, right, step: int) -> None:
    for repo in (left, right):
        repo.commit(random_insert_patch(repo.graph, derive_seed("since", step, repo.robot), 3))


def _count_scans(monkeypatch) -> list:
    """Record the graph of every ``Graph.items_missing_from`` call."""
    scans, scan = [], Graph.items_missing_from

    def counted(graph, other):
        scans.append(graph)
        return scan(graph, other)

    monkeypatch.setattr(Graph, "items_missing_from", counted)
    return scans


def test_unscoped_trades_after_a_common_state_read_only_the_patches_since(monkeypatch):
    """Once two repositories share a state, an unscoped trade after
    insert-only commits reads their patches since it and scans no item
    hashes; a trade with no common state scans."""

    def refused(graph, other):
        raise AssertionError("scanned every item hash")

    left, right = Repository(0, random_graph(1, 12)), Repository(1, random_graph(2, 12))
    with monkeypatch.context() as m:
        scans = _count_scans(m)
        execute_trade(left, right, union_policy())  # no common state: one scan each way
    assert len(scans) == 2
    for step, policy in enumerate((union_policy(), match_policy(), union_policy())):
        _insert_on_both_sides(left, right, step)
        with monkeypatch.context() as m:
            m.setattr(Graph, "items_missing_from", refused)
            out = execute_trade(left, right, policy)
        assert out.stats.nodes_in == 3 and left.digest() == right.digest()


@pytest.mark.parametrize("deleter", [0, 1])
def test_a_delete_since_the_common_state_brings_the_scan_back(monkeypatch, deleter):
    base = random_graph(3, 12)
    left, right = Repository(0, base), Repository(1, base)
    _insert_on_both_sides(left, right, 0)
    repo = (left, right)[deleter]
    repo.commit(build_patch(repo.graph, delete_edges=[next(iter(base.edges()))]))
    scans = _count_scans(monkeypatch)
    out = execute_trade(left, right, union_policy())
    assert len(scans) == 2
    assert left.digest() == right.digest() == compute_digest_from_scratch(left.graph)
    assert out.stats.nodes_in == 3


def test_trade_invariant_error_names_the_trade():
    left, right, *_ = fig2_repos(near_duplicate=True)
    lhs = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                            LocaliserConfig(), allow_asymmetric=True)
    with pytest.raises(IntegrityViolation) as err:
        execute_trade(Repository(3, left.graph), Repository(5, right.graph), lhs, k=7)
    assert "did not converge" in str(err.value)
    assert "k=7" in str(err.value)
    assert "buyer 3" in str(err.value) and "seller 5" in str(err.value)
