"""The data market in miniature.

A buyer prices patches with the team's value metric, keeps a streaming
belief per seller, samples its new content into a cheap query, adjudicates
tenders, and lets an epsilon-greedy bandit decide who to trade with.
"""

import random

from expmarket import (
    Belief,
    Choice,
    ChoicePolicy,
    Graph,
    Node,
    NodeIdGenerator,
    SamplingBudget,
    Strategy,
    TradingStrategy,
    adjudicate,
    build_patch,
    price_nodes,
    sample_for_query,
    select_partners,
    update_belief,
)

ids = NodeIdGenerator(seed=5, robot=0)
gamma = ChoicePolicy(Choice.INLIERS)


def patch_of(qualities):
    nodes = [Node(id=ids.next_id(), descriptor=(float(i), 0.0), inlier_count=q)
             for i, q in enumerate(qualities)]
    return build_patch(Graph(), insert_nodes=nodes)


print("== pricing is a per-packet mean of the value metric ==")
patch = patch_of([4, 8, 12])
print(f"gamma values [4, 8, 12] -> price {price_nodes(patch.insert_nodes.values(), gamma)}")

print("\n== beliefs are streaming mean/variance per seller ==")
belief = Belief(seller=1)
for value in [6.0, 9.0, 7.5, 8.0]:
    belief = update_belief(belief, value)
    print(f"  after m={value:4}: mean {belief.mean:.3f}  variance {belief.variance:.3f}")

print("\n== queries are down-sampled by value under a byte budget ==")
big = patch_of([3, 14, 9, 1, 11])
sample = sample_for_query(big, SamplingBudget(max_nodes=3, bytes_per_node=256), gamma)
kept = sorted(n.inlier_count for n in sample.insert_nodes.values())
print(f"budget 3 of 5 nodes keeps gammas {kept}")

print("\n== tender adjudication: least perturbed from belief wins ==")
beliefs = {1: Belief(1, count=4, mean=5.0), 2: Belief(2, count=4, mean=10.0)}
offers = {1: 7.0, 2: 8.0}
print(f"offers {offers} against means (5, 10) -> seller {adjudicate(offers, beliefs)}"
      " (tie on deviation, smaller id)")

print("\n== an epsilon-greedy bandit picks trading partners ==")
rng = random.Random(0)
value_rng = random.Random(1)
seller_quality = {1: 5.0, 2: 10.0}
beliefs = {}
strategy = TradingStrategy(Strategy.BANDIT_EXPLORE_EXPLOIT, exploit_fraction=0.7)
picks = []
for _ in range(400):
    (seller,) = select_partners(strategy, beliefs, 0, {0, 1, 2}, rng)
    value = max(0.0, value_rng.gauss(seller_quality[seller], 1.0))
    beliefs[seller] = update_belief(beliefs.get(seller, Belief(seller)), value)
    picks.append(seller)
share = sum(1 for p in picks[2:] if p == 2) / (len(picks) - 2)
print(f"seller 2 (mean 10 vs 5) won {share:.0%} of trades at exploit fraction 0.7")
print(f"learned means: " + ", ".join(f"seller {s}: {b.mean:.2f}"
                                     for s, b in sorted(beliefs.items())))
