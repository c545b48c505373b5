"""Market: pricing, belief tracking, sampling, adjudication, partner choice."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.graph import Graph
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.market import (
    Belief,
    NoEligibleSellers,
    SamplingBudget,
    Strategy,
    TradingStrategy,
    adjudicate,
    price_nodes,
    query_bytes,
    sample_for_query,
    select_partners,
    update_belief,
)
from expmarket.merging import Choice, ChoicePolicy
from expmarket.patches import build_patch

from _builders import chain_edges, mknode

INLIERS = ChoicePolicy(Choice.INLIERS)


def price(patch):
    return price_nodes(patch.insert_nodes.values(), INLIERS)


def patch_with_gammas(gammas, seed=0):
    gen = NodeIdGenerator(seed, 0)
    nodes = [mknode(gen, [float(i)], inlier_count=g) for i, g in enumerate(gammas)]
    return build_patch(Graph(), insert_nodes=nodes, insert_edges=chain_edges(nodes)), nodes


# -- pricing -------------------------------------------------------------------


def test_price_is_arithmetic_mean():
    patch, _ = patch_with_gammas([1, 2, 3])
    assert price(patch) == 2.0


def test_price_single_node():
    patch, _ = patch_with_gammas([7])
    assert price(patch) == 7.0


def test_price_matches_naive_fold():
    for case in range(50):
        rng = random.Random(derive_seed("price", case))
        gammas = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 12))]
        patch, nodes = patch_with_gammas(gammas, seed=case)
        total = 0.0
        for n in nodes:
            total += n.inlier_count
        assert price(patch) == pytest.approx(total / len(nodes), rel=1e-15)


def test_price_scale_consistent_under_duplication():
    patch, nodes = patch_with_gammas([4, 8, 12])
    gen = NodeIdGenerator(99, 9)
    doubled_nodes = nodes + [mknode(gen, [9.0], inlier_count=g) for g in (4, 8, 12)]
    doubled = build_patch(Graph(), insert_nodes=doubled_nodes)
    assert price(doubled) == price(patch)


# -- beliefs -------------------------------------------------------------------


def test_belief_first_observation():
    b = update_belief(Belief(seller=1), 4.0)
    assert (b.count, b.mean, b.m2) == (1, 4.0, 0.0)
    assert b.initialized


def test_belief_small_sequence_matches_batch():
    b = Belief(seller=1)
    for v in [2.0, 4.0, 6.0]:
        b = update_belief(b, v)
    assert b.mean == pytest.approx(4.0)
    assert b.m2 == pytest.approx(8.0)
    assert b.variance == pytest.approx(4.0)


def _batch_mean_var(values):
    import math

    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, var


def test_belief_streaming_matches_batch_oracle_one_million():
    rng = random.Random(derive_seed("welford", 0))
    values = [rng.gauss(50.0, 9.0) for _ in range(1_000_000)]
    b = Belief(seller=0)
    for v in values:
        b = update_belief(b, v)
    mean, var = _batch_mean_var(values)
    assert abs(b.mean - mean) <= 1e-9 * abs(mean)
    assert abs(b.variance - var) <= 1e-9 * abs(var)


def test_belief_constant_sequence_zero_variance():
    b = Belief(seller=0)
    for _ in range(10_000):
        b = update_belief(b, 3.25)
    assert b.mean == 3.25
    assert b.variance == 0.0


def test_belief_adversarial_orderings():
    # large mean with small spread is the classic cancellation setting
    # (naive sum-of-squares loses ~6 digits here); stress it under sorted,
    # reversed, and alternating orders
    rng = random.Random(derive_seed("welford-adv", 0))
    base = [1000.0 + rng.gauss(0.0, 1.0) for _ in range(200_000)]
    orders = {
        "sorted": sorted(base),
        "reversed": sorted(base, reverse=True),
        "alternating": [v for pair in zip(sorted(base), sorted(base, reverse=True))
                        for v in pair][: len(base)],
    }
    for name, values in orders.items():
        b = Belief(seller=0)
        for v in values:
            b = update_belief(b, v)
        mean, var = _batch_mean_var(values)
        assert abs(b.mean - mean) <= 1e-9 * abs(mean), name
        assert abs(b.variance - var) <= 1e-9 * abs(var), name


# -- sampling ------------------------------------------------------------------


def test_sample_keeps_highest_value_nodes():
    patch, nodes = patch_with_gammas([5, 9, 7])
    sample = sample_for_query(patch, SamplingBudget(max_nodes=2), INLIERS)
    kept = {n.inlier_count for n in sample.insert_nodes.values()}
    assert kept == {9, 7}


def test_sample_whole_patch_when_budget_allows():
    patch, nodes = patch_with_gammas([5, 9, 7])
    sample = sample_for_query(patch, SamplingBudget(max_nodes=10), INLIERS)
    assert len(sample.insert_nodes) == 3


def test_sample_tie_break_smallest_id():
    patch, nodes = patch_with_gammas([4, 4, 4])
    sample = sample_for_query(patch, SamplingBudget(max_nodes=1), INLIERS)
    (kept,) = sample.insert_nodes.values()
    assert kept.id == min(n.id for n in nodes)


def test_sample_edges_restricted_to_survivors():
    patch, nodes = patch_with_gammas([1, 9, 9])
    sample = sample_for_query(patch, SamplingBudget(max_nodes=2), INLIERS)
    kept_ids = set(sample.insert_nodes)
    for e in sample.insert_edges:
        assert e.src in kept_ids and e.dst in kept_ids


def test_query_bytes_charged_per_node():
    patch, _ = patch_with_gammas([5, 9, 7])
    budget = SamplingBudget(max_nodes=2, bytes_per_node=256)
    assert query_bytes(patch, budget) == 512


@given(size=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       max_nodes=st.integers(1, 50), bytes_per_node=st.integers(1, 1024),
       kind=st.sampled_from([Choice.INLIERS, Choice.FABMAP, Choice.PATH_MEMORY]))
@settings(max_examples=60, deadline=None)
def test_query_bytes_is_the_size_of_the_sample(size, seed, max_nodes, bytes_per_node, kind):
    """The charge is what sending ``sample_for_query``'s sample would cost."""
    rng = random.Random(seed)
    gen = NodeIdGenerator(seed, 0)
    nodes = [mknode(gen, [float(i)], inlier_count=rng.randrange(10),
                    fabmap_score=rng.random(), path_memory=rng.randrange(10))
             for i in range(size)]
    patch = build_patch(Graph(), insert_nodes=nodes, insert_edges=chain_edges(nodes))
    budget = SamplingBudget(max_nodes=max_nodes, bytes_per_node=bytes_per_node)
    sample = sample_for_query(patch, budget, ChoicePolicy(kind))
    assert query_bytes(patch, budget) == len(sample.insert_nodes) * bytes_per_node


# -- adjudication --------------------------------------------------------------


def test_adjudicate_least_perturbed_tie_breaks_by_id():
    beliefs = {1: Belief(1, count=3, mean=5.0), 2: Belief(2, count=3, mean=10.0)}
    offers = {1: 7.0, 2: 8.0}
    assert adjudicate(offers, beliefs) == 1  # both deviate by 2.0


def test_adjudicate_single_seller():
    beliefs = {4: Belief(4, count=1, mean=2.0)}
    assert adjudicate({4: 9.0}, beliefs) == 4


def test_adjudicate_exact_match_wins():
    beliefs = {1: Belief(1, count=2, mean=5.0), 2: Belief(2, count=2, mean=6.0)}
    assert adjudicate({1: 6.0, 2: 6.0}, beliefs) == 2


def test_adjudicate_permutation_invariant():
    beliefs = {i: Belief(i, count=2, mean=float(i)) for i in range(5)}
    offers = {i: float(i) + (0.1 * i) for i in range(5)}
    forward = adjudicate(dict(sorted(offers.items())), beliefs)
    backward = adjudicate(dict(sorted(offers.items(), reverse=True)), beliefs)
    assert forward == backward


def test_adjudicate_no_eligible():
    with pytest.raises(NoEligibleSellers):
        adjudicate({1: 5.0}, {1: Belief(1)})


# -- partner selection -----------------------------------------------------------


def team(n):
    return set(range(n))


def initialized_beliefs(means):
    return {seller: Belief(seller, count=3, mean=mean)
            for seller, mean in means.items()}


def test_select_all_excludes_self():
    got = select_partners(TradingStrategy(Strategy.ALL), {}, 2, team(4),
                          random.Random(0))
    assert got == frozenset({0, 1, 3})


def test_select_central():
    strat = TradingStrategy(Strategy.CENTRAL, central_id=1)
    assert select_partners(strat, {}, 3, team(4), random.Random(0)) == frozenset({1})
    assert select_partners(strat, {}, 1, team(4), random.Random(0)) == frozenset()


def test_select_none_strategy_trades_nothing():
    assert select_partners(TradingStrategy(Strategy.NONE), {}, 0, team(3),
                           random.Random(0)) == frozenset()


def test_select_exploit_argmax_with_tie_break():
    beliefs = initialized_beliefs({1: 2.0, 3: 5.0})
    strat = TradingStrategy(Strategy.BANDIT_EXPLOIT)
    got = select_partners(strat, beliefs, 0, {0, 1, 3}, random.Random(0))
    assert got == frozenset({3})
    tied = initialized_beliefs({1: 5.0, 3: 5.0})
    assert select_partners(strat, tied, 0, {0, 1, 3}, random.Random(0)) \
        == frozenset({1})


def test_select_uninitialized_visited_round_robin_first():
    strat = TradingStrategy(Strategy.BANDIT_EXPLOIT)
    beliefs = {}
    rng = random.Random(0)
    seen = []
    for _ in range(3):
        (pick,) = select_partners(strat, beliefs, 0, team(4), rng)
        seen.append(pick)
        beliefs[pick] = Belief(pick, count=1, mean=1.0)
    assert seen == [1, 2, 3]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_select_partners_names_one_seller_at_most_unless_all(data):
    """The simulator buys from every seller it tenders to and never
    adjudicates, which is sound because only ALL selects more than one."""
    size = data.draw(st.integers(2, 12), label="team")
    members = team(size)
    self_id = data.draw(st.integers(0, size - 1), label="self_id")
    strategy = TradingStrategy(data.draw(st.sampled_from(Strategy), label="kind"),
                               exploit_fraction=data.draw(st.floats(0.0, 1.0)),
                               central_id=data.draw(st.integers(0, size - 1)))
    beliefs = {r: Belief(r, count=data.draw(st.integers(0, 3)),
                         mean=data.draw(st.floats(-1e6, 1e6)))
               for r in sorted(members) if data.draw(st.booleans())}
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    got = select_partners(strategy, beliefs, self_id, members, rng)
    if strategy.kind is Strategy.ALL:
        assert got == members - {self_id}
    else:
        assert len(got) <= 1 and self_id not in got


def test_select_never_self_never_empty_for_bandits():
    rng = random.Random(7)
    for kind in (Strategy.BANDIT_EXPLORE, Strategy.BANDIT_EXPLOIT,
                 Strategy.BANDIT_EXPLORE_EXPLOIT):
        beliefs = initialized_beliefs({r: float(r) for r in range(5) if r != 2})
        for _ in range(200):
            got = select_partners(TradingStrategy(kind, exploit_fraction=0.5),
                                  beliefs, 2, team(5), rng)
            assert got and 2 not in got


def test_explore_exploit_fraction_matches_epsilon():
    # exploit picks the argmax; explore is uniform over all nine others, so
    # P(argmax) = eps + (1 - eps)/9 and we can invert the frequency estimate
    eps = 0.7
    strat = TradingStrategy(Strategy.BANDIT_EXPLORE_EXPLOIT, exploit_fraction=eps)
    beliefs = initialized_beliefs({r: float(r) for r in range(1, 11)})
    rng = random.Random(derive_seed("eps", 0))
    draws = 100_000
    hits = 0
    for _ in range(draws):
        (pick,) = select_partners(strat, beliefs, 0, team(11), rng)
        if pick == 10:
            hits += 1
    p_hat = hits / draws
    eps_hat = (p_hat - 1 / 10) / (1 - 1 / 10)
    assert abs(eps_hat - eps) <= 0.01


def test_exploit_prefers_dominant_seller_in_stationary_market():
    # two sellers with value means 5 and 10: after the forced first visits,
    # EXPLOIT must pick the better one at least 90% of the time
    rng = random.Random(derive_seed("bandit-market", 1))
    value_rng = random.Random(derive_seed("bandit-market", 2))
    strat = TradingStrategy(Strategy.BANDIT_EXPLOIT)
    beliefs = {}
    picks = []
    for _ in range(200):
        (seller,) = select_partners(strat, beliefs, 0, team(3), rng)
        mean = {1: 5.0, 2: 10.0}[seller]
        value = max(0.0, value_rng.gauss(mean, 1.0))
        beliefs[seller] = update_belief(beliefs.get(seller, Belief(seller)), value)
        picks.append(seller)
    after_init = picks[2:]
    assert sum(1 for p in after_init if p == 2) / len(after_init) >= 0.9
