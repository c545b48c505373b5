"""Commutation policies side by side.

The same divergent pair merged three ways: plain union, localiser-matched
merging with a quality-driven choice policy, and the deliberately broken
left-hand-side policy that silently forks the team.
"""

from expmarket import (
    Choice,
    ChoicePolicy,
    Commutation,
    CommutationPolicy,
    Edge,
    Graph,
    LocaliserConfig,
    Node,
    NodeIdGenerator,
    Pose,
    Repository,
    build_patch,
    trade_merge,
)

ids = NodeIdGenerator(seed=7, robot=0)


def place(x, y, quality):
    return Node(id=ids.next_id(), descriptor=(x, y), inlier_count=quality)


def make_repos():
    base_nodes = [place(float(i), 0.0, 10) for i in range(3)]
    base = Graph()
    for n in base_nodes:
        base.insert_node(n)
    for a, b in zip(base_nodes, base_nodes[1:]):
        base.insert_edge(Edge(a.id, b.id, Pose.from_translation(5.0)))

    def extend(repo, first, quality):
        fresh = [place(*first, quality), place(first[0] + 1.0, first[1], quality)]
        edges = [Edge(base_nodes[-1].id, fresh[0].id, Pose.from_translation(5.0)),
                 Edge(fresh[0].id, fresh[1].id, Pose.from_translation(5.0))]
        repo.commit(build_patch(repo.graph, insert_nodes=fresh, insert_edges=edges))

    left = Repository(0, base)  # each repository copies the graph it is given
    right = Repository(1, base)
    extend(left, (10.0, 0.0), quality=5)     # both teams map the same place:
    extend(right, (10.05, 0.0), quality=9)   # descriptors 0.05 apart
    return left, right


localiser = LocaliserConfig(tau_m=0.12)

print("== union keeps everything ==")
left, right = make_repos()
l2, r2, stats = trade_merge(left, right, CommutationPolicy(Commutation.UNION))
print(f"converged: {l2.digest() == r2.digest()}  nodes: {len(l2.graph)}  "
      f"(duplicates retained)")

print("\n== matched merging discards the weaker twin ==")
left, right = make_repos()
policy = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.INLIERS), localiser)
l2, r2, stats = trade_merge(left, right, policy)
print(f"converged: {l2.digest() == r2.digest()}  nodes: {len(l2.graph)}  "
      f"matches: {stats.matches}  dropped: {stats.nodes_deleted}")
print("the dropped node's neighbours were rewired onto the keeper, so the map"
      " stays connected")

print("\n== an asymmetric choice policy forks the team ==")
left, right = make_repos()
mischief = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                             localiser, allow_asymmetric=True)
l2, r2, _ = trade_merge(left, right, mischief, enforce=False)
print(f"digests equal after the trade: {l2.digest() == r2.digest()}  "
      "(each side kept its own copy)")
