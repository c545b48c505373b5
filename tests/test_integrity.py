"""Integrity battery, coverage accounting, Monte Carlo convergence."""

import pytest

from expmarket.integrity import (
    CoverageReport,
    GeneratorParams,
    generate_configurations,
    merge_coverage,
    monte_carlo_convergence,
    run_battery_trial,
)
from expmarket.graph import compute_digest_from_scratch
from expmarket.localiser import LocaliserConfig, match_patches
from expmarket.merging import (
    Choice,
    ChoicePolicy,
    Commutation,
    CommutationPolicy,
    NonSymmetricPolicy,
)

FAULT_SETS = [frozenset(), frozenset({"no_reconnect"}), frozenset({"no_delete"}),
              frozenset({"no_reconnect", "no_delete"})]


def match_policy(choice=Choice.INLIERS):
    return CommutationPolicy(Commutation.MATCH, ChoicePolicy(choice),
                             LocaliserConfig(tau_m=0.1))


# -- battery bookkeeping -------------------------------------------------------


def test_vector_length_equals_battery_size():
    config = generate_configurations(1, 1)[0]
    trial = run_battery_trial(config, match_policy())
    multiset = merge_coverage([trial]).multiset
    assert all(len(vec) == 2 for vec in multiset)
    total = sum(multiset.values())
    assert total == len(config.left.insert_nodes) + len(config.right.insert_nodes)


def test_battery_trial_keeps_the_pre_trade_graphs():
    """The post graphs are copies; the trial still holds the graphs from
    before the merge, which the battery's tests compare against."""
    for config in generate_configurations(3, 5):
        trial = run_battery_trial(config, match_policy())
        assert trial.left_graph.digest() == config.left_graph().digest()
        assert trial.right_graph.digest() == config.right_graph().digest()
        assert trial.post_left.digest() == trial.post_right.digest()
        assert trial.post_left.digest() != trial.left_graph.digest()


@pytest.mark.parametrize("faults", FAULT_SETS, ids=lambda f: "+".join(sorted(f)) or "none")
def test_battery_trial_post_graphs_hold_their_digests(faults):
    """Faulted or not, a trial leaves its pre-merge graphs at the states the
    configuration's patches reach, and each post graph's digest is the one
    its content hashes to."""
    for config in generate_configurations(17, 6):
        trial = run_battery_trial(config, match_policy(), faults)
        assert trial.left_graph.digest() == config.left.output_state
        assert trial.right_graph.digest() == config.right.output_state
        for post in (trial.post_left, trial.post_right):
            assert post.digest() == compute_digest_from_scratch(post)


def test_battery_refuses_an_asymmetric_match_policy_unless_allowed():
    config = generate_configurations(1, 1)[0]
    with pytest.raises(NonSymmetricPolicy):
        run_battery_trial(config, match_policy(Choice.LHS))


def test_coverage_sufficiency_rule():
    report = CoverageReport({(1, 1): 3, (0, 1): 1}, battery_size=2)
    assert report.distinct == 2
    assert not report.sufficient
    full = CoverageReport({(1, 1): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}, 2)
    assert full.sufficient


def test_clean_match_merges_pass_both_tests():
    configs = generate_configurations(7, 40)
    trials = [run_battery_trial(c, match_policy()) for c in configs]
    cov = merge_coverage(trials)
    assert set(cov.multiset) == {(1, 1)}


def test_fault_injection_produces_failing_vectors():
    configs = generate_configurations(11, 25)
    no_rec = merge_coverage([run_battery_trial(c, match_policy(),
                                               frozenset({"no_reconnect"}))
                             for c in configs])
    assert (0, 1) in no_rec.multiset  # connectivity broken, coexistence fine
    no_del = merge_coverage([run_battery_trial(c, match_policy(),
                                               frozenset({"no_delete"}))
                             for c in configs])
    assert (1, 0) in no_del.multiset  # keep and drop coexist, still connected
    both = merge_coverage([run_battery_trial(c, match_policy(),
                                             frozenset({"no_reconnect", "no_delete"}))
                           for c in configs])
    assert (0, 0) in both.multiset


def test_battery_refuses_an_unknown_fault_before_merging(monkeypatch):
    """A misspelt fault would otherwise run a clean merge unnoticed."""
    import expmarket.integrity as integrity

    def no_merge(*args, **kwargs):
        raise AssertionError("merged before checking the faults")

    monkeypatch.setattr(integrity, "commute", no_merge)
    config = generate_configurations(5, 1)[0]
    for faults in ({"no_delet"}, {"no_delete", "no_reconect"}):
        with pytest.raises(ValueError, match="no_delet'|no_reconect"):
            run_battery_trial(config, match_policy(), frozenset(faults))


def test_both_faults_merge_as_union():
    """Deleting nothing and rewiring nothing, a MATCH merge inserts exactly
    what each side lacks: both sides reach the states a UNION merge reaches."""
    union = CommutationPolicy(Commutation.UNION)
    both = frozenset({"no_reconnect", "no_delete"})
    for seed in (5, 11, 13):
        for config in generate_configurations(seed, 60):
            faulted = run_battery_trial(config, match_policy(), both)
            clean = run_battery_trial(config, union)
            assert faulted.post_left.digest() == clean.post_left.digest()
            assert faulted.post_right.digest() == clean.post_right.digest()


def test_corpus_with_faults_reaches_full_coverage():
    configs = generate_configurations(13, 30)
    trials = [run_battery_trial(c, match_policy()) for c in configs]
    for faults in ({"no_reconnect"}, {"no_delete"}, {"no_reconnect", "no_delete"}):
        trials += [run_battery_trial(c, match_policy(), frozenset(faults))
                   for c in configs[:8]]
    assert merge_coverage(trials).sufficient


# -- configuration generation ----------------------------------------------------


def test_zero_overlap_degenerates_to_union():
    params = GeneratorParams(overlap=0.0)
    for config in generate_configurations(3, 10, params):
        got = match_patches(config.left, config.right, LocaliserConfig(tau_m=0.1))
        assert len(got) == 0


def test_full_overlap_matches_every_smaller_side_node():
    params = GeneratorParams(overlap=1.0)
    for config in generate_configurations(5, 10, params):
        got = match_patches(config.left, config.right, LocaliserConfig(tau_m=0.1))
        assert len(got) == min(len(config.left.insert_nodes),
                               len(config.right.insert_nodes))


def test_generation_is_seed_deterministic():
    a = generate_configurations(9, 5)
    b = generate_configurations(9, 5)
    for ca, cb in zip(a, b):
        assert ca.base.digest() == cb.base.digest()
        assert ca.left.output_state == cb.left.output_state
        assert ca.right.output_state == cb.right.output_state
    c = generate_configurations(10, 5)
    assert a[0].base.digest() != c[0].base.digest()


# -- Monte Carlo -------------------------------------------------------------------


def test_monte_carlo_union_never_diverges():
    report = monte_carlo_convergence(2, 9, 20, 10, 2, seed=5)
    assert report.divergence_events == 0
    assert all(report.mutual_history[i][j] == 20 * 9
               for i in range(2) for j in range(2))


def test_monte_carlo_match_with_overlap_converges_and_dedups():
    union = monte_carlo_convergence(3, 5, 10, 8, 1, seed=7)
    match = monte_carlo_convergence(3, 5, 10, 8, 1, policy=match_policy(),
                                    seed=7, overlap=0.5)
    assert match.divergence_events == 0
    assert sum(match.counts_at(5)) < sum(union.counts_at(5))


def test_monte_carlo_lhs_diverges():
    lhs = CommutationPolicy(Commutation.MATCH, ChoicePolicy(Choice.LHS),
                            LocaliserConfig(tau_m=0.1), allow_asymmetric=True)
    report = monte_carlo_convergence(2, 5, 10, 8, 1, policy=lhs, seed=3,
                                     overlap=0.6)
    assert report.divergence_events > 0


def test_monte_carlo_growth_statistics_small():
    R, K, M = 2, 6, 60
    mu, sigma = 10.0, 2.0
    report = monte_carlo_convergence(R, K, M, mu, sigma, seed=11)
    for k in range(1, K + 1):
        counts = report.counts_per_trial(k, robot=0)
        mean = sum(counts) / M
        expect = k * mu * R
        se = (k * sigma * sigma * R / M) ** 0.5
        assert abs(mean - expect) <= 4 * se + 0.5  # rounding adds ~1/12 variance


def test_monte_carlo_validates_arguments():
    with pytest.raises(ValueError):
        monte_carlo_convergence(1, 5, 5, 10, 2)
    with pytest.raises(ValueError):
        monte_carlo_convergence(2, 5, 5, [10, 10, 10], 2)
