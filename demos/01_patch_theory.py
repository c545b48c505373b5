"""A walking tour of the patch layer.

Two robots share a three-node map, each extends it on its own foray, and a
single pairwise exchange carries both to the same state. Along the way:
digests, inverses, composition, and the diff that drives every trade.
"""

from expmarket import (
    Edge,
    Graph,
    Node,
    NodeIdGenerator,
    Pose,
    Repository,
    apply_patch,
    build_patch,
    compose,
    diff,
    invert_patch,
)

ids = NodeIdGenerator(seed=2018, robot=0)


def place(x, quality):
    return Node(id=ids.next_id(), descriptor=(x, 0.0), inlier_count=quality)


print("== repository states are content digests ==")
g = Graph()
print(f"empty graph digest : {g.digest().hex()[:24]}...")

common = [place(0.0, 10), place(5.0, 12), place(10.0, 9)]
base_patch = build_patch(
    g,
    insert_nodes=common,
    insert_edges=[Edge(a.id, b.id, Pose.from_translation(5.0))
                  for a, b in zip(common, common[1:])],
)
g = apply_patch(g, base_patch)
print(f"after first foray  : {g.digest().hex()[:24]}... ({len(g)} nodes)")

print("\n== every patch is invertible ==")
undone = apply_patch(g, invert_patch(base_patch))
print(f"applying the inverse returns to empty: {undone.digest() == Graph().digest()}")

print("\n== patches compose ==")
second = build_patch(g, insert_nodes=[place(15.0, 20)])
third_graph = apply_patch(g, second)
fourth = build_patch(third_graph, insert_nodes=[place(20.0, 7)])
combined = compose(second, fourth)
print(f"compose(A, B) spans {combined.input_state.hex()[:8]}.. -> "
      f"{combined.output_state.hex()[:8]}.. inserting {len(combined.insert_nodes)} nodes")
via_steps = apply_patch(third_graph, fourth)
via_combined = apply_patch(g, combined)
print(f"sequential and composed application agree: "
      f"{via_steps.digest() == via_combined.digest()}")

print("\n== diff produces the divergent pair of a trade ==")
left = Repository(0, g)  # each repository copies the graph it is given
right = Repository(1, g)
left.commit(build_patch(left.graph, insert_nodes=[place(25.0, 30), place(30.0, 31)]))
right.commit(build_patch(right.graph, insert_nodes=[place(40.0, 8), place(45.0, 14)]))

incoming, outgoing = diff(left.graph, right.graph)  # content only: nothing is hashed
print(f"left lacks {len(incoming.insert_nodes)} nodes, "
      f"right lacks {len(outgoing.insert_nodes)}")
to_left = build_patch(left.graph, insert_nodes=incoming.insert_nodes.values(),
                      insert_edges=incoming.insert_edges)
to_right = build_patch(right.graph, insert_nodes=outgoing.insert_nodes.values(),
                       insert_edges=outgoing.insert_edges)
u_left = apply_patch(left.graph, to_left)
u_right = apply_patch(right.graph, to_right)
print(f"both sides reach the union state: {u_left.digest() == u_right.digest()}"
      f" ({len(u_left)} nodes)")
