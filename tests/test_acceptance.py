"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Real-world localisation numbers need hundreds of kilometres of imagery, so
acceptance is exact property suites plus qualitative checks of the
expected trends on the synthetic world. Every tolerance is pinned here.
"""

import hashlib
import json
import math
import random
import statistics
import time
from pathlib import Path

from expmarket.cli import main
from expmarket.config import bundled_scenario, parse_scenario_config
from expmarket.ids import derive_seed
from expmarket.integrity import (
    generate_configurations,
    merge_coverage,
    monte_carlo_convergence,
    run_battery_trial,
)
from expmarket.market import (
    Belief,
    Strategy,
    TradingStrategy,
    select_partners,
    update_belief,
)
from expmarket.merging import trade_merge
from expmarket.sim import run_trial

from test_merging import _random_divergent_repos, match_policy
from test_patches import (
    test_compose_vs_sequential_property_1000_cases as _compose_property,
    test_diff_closure_property_1000_cases as _diff_closure_property,
    test_invert_round_trip_property_1000_cases as _round_trip_property,
)

ACCEPT_SEED = 20180604
GROWTH_SEED = 1  # fixed draw for the statistical growth bounds


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {criterion}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {name} {detail}"


# -- 1. convergence under wholesale trading ----------------------------------


def test_criterion_1_convergence():
    started = time.monotonic()
    runs = [("union", "inliers")] + [("match", g)
                                     for g in ("inliers", "fabmap", "path_memory")]
    for policy, gamma in runs:
        code = main(["verify-convergence", "--robots", "2", "--forays", "9",
                     "--trials", "100", "--policy", policy, "--gamma", gamma,
                     "--overlap", "0.3" if policy == "match" else "0.0",
                     "--seed", str(ACCEPT_SEED)])
        assert code == 0, f"{policy}/{gamma} diverged"
    elapsed = time.monotonic() - started
    _report(1, "no divergence over 100 trials (union + each pure gamma)",
            elapsed < 60.0, f"runtime {elapsed:.1f}s < 60s")


# -- 2. growth statistics of the converged map --------------------------------


def test_criterion_2_growth_statistics():
    R, K, M, mu, sigma = 2, 9, 100, 10.0, 2.0
    report = monte_carlo_convergence(R, K, M, mu, sigma, seed=GROWTH_SEED)
    assert report.divergence_events == 0
    worst_mean = worst_var = 0.0
    for k in range(1, K + 1):
        counts = report.counts_per_trial(k, robot=0)
        mean = statistics.mean(counts)
        var = statistics.variance(counts)
        expect_mean = k * R * mu  # 20k
        expect_var = k * R * sigma * sigma  # 8k
        se_mean = math.sqrt(expect_var / M)
        se_var = expect_var * math.sqrt(2.0 / (M - 1))  # chi-square based
        worst_mean = max(worst_mean, abs(mean - expect_mean) / (3 * se_mean))
        worst_var = max(worst_var, abs(var - expect_var) / (3 * se_var))
        assert abs(mean - expect_mean) <= 3 * se_mean, f"mean at k={k}"
        assert abs(var - expect_var) <= 3 * se_var, f"variance at k={k}"
    _report(2, "mean ~ 20k and variance ~ 8k at every convergence point",
            True, f"worst mean dev {worst_mean:.2f}, var dev {worst_var:.2f} (of 3 SE)")


# -- 3. patch-theory property suites -------------------------------------------


def test_criterion_3_patch_theory_properties():
    _round_trip_property()
    _compose_property()
    _diff_closure_property()
    # merge order irrelevance, 1000 fresh cases
    for case in range(1000):
        repo_a, repo_b = _random_divergent_repos(derive_seed("accept-comm", case),
                                                 overlap=0.5)
        policy = match_policy(tau_m=0.1)
        repo_c = repo_a.copy()
        one, _, _ = trade_merge(repo_c.copy(), repo_b.copy(), policy)
        two, _, _ = trade_merge(one, repo_a.copy(), policy)
        alt1, _, _ = trade_merge(repo_c.copy(), repo_a.copy(), policy)
        alt2, _, _ = trade_merge(alt1, repo_b.copy(), policy)
        assert two.digest() == alt2.digest(), f"case {case}"
    _report(3, "4x 1000-case property suites (round-trip, compose, closure, "
               "merge order)", True, "zero failures")


# -- 4. integrity battery --------------------------------------------------------


def test_criterion_4_integrity_battery():
    policy = match_policy(tau_m=0.1)
    configs = generate_configurations(ACCEPT_SEED, 1000)
    clean = [run_battery_trial(c, policy) for c in configs]
    clean_cov = merge_coverage(clean)
    assert set(clean_cov.multiset) == {(1, 1)}, "a clean merge failed a test"

    subset = configs[:50]
    no_rec = merge_coverage([run_battery_trial(c, policy, frozenset({"no_reconnect"}))
                             for c in subset])
    no_del = merge_coverage([run_battery_trial(c, policy, frozenset({"no_delete"}))
                             for c in subset])
    both = merge_coverage([run_battery_trial(
        c, policy, frozenset({"no_reconnect", "no_delete"})) for c in subset])
    assert any(v[0] == 0 for v in no_rec.multiset), "no_reconnect produced no failure"
    assert any(v[1] == 0 for v in no_del.multiset), "no_delete produced no failure"

    total = dict(clean_cov.multiset)
    for cov in (no_rec, no_del, both):
        for vec, count in cov.multiset.items():
            total[vec] = total.get(vec, 0) + count
    distinct = len(total)
    _report(4, "1000 clean merges pass; faults fail; coverage reaches 2^J",
            distinct == 4, f"distinct vectors {distinct} of 4")


# -- 5. streaming belief statistics ----------------------------------------------


def test_criterion_5_welford_correctness():
    def batch(values):
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return mean, var

    rng = random.Random(derive_seed(ACCEPT_SEED, "welford"))
    million = [rng.gauss(40.0, 7.0) for _ in range(1_000_000)]
    sequences = {
        "random": million,
        "constant": [3.25] * 1_000_000,
        "sorted": sorted(million),
        "reversed": sorted(million, reverse=True),
    }
    worst = 0.0
    for name, values in sequences.items():
        b = Belief(seller=0)
        for v in values:
            b = update_belief(b, v)
        mean, var = batch(values)
        mean_err = abs(b.mean - mean) / max(abs(mean), 1e-300)
        var_err = 0.0 if var == b.variance else abs(b.variance - var) / max(abs(var), 1e-300)
        worst = max(worst, mean_err, var_err)
        assert mean_err <= 1e-9, f"{name} mean"
        assert var_err <= 1e-9, f"{name} variance"
    _report(5, "streaming mean/variance vs batch oracle on 1e6-element sequences",
            True, f"worst relative error {worst:.2e} <= 1e-9")


# -- 6. bandit behavior ------------------------------------------------------------


def test_criterion_6_bandit_behavior():
    # stationary two-seller market, value means 5 and 10
    rng = random.Random(derive_seed(ACCEPT_SEED, "bandit"))
    value_rng = random.Random(derive_seed(ACCEPT_SEED, "bandit-values"))
    beliefs = {}
    picks = []
    strat = TradingStrategy(Strategy.BANDIT_EXPLOIT)
    for _ in range(500):
        (seller,) = select_partners(strat, beliefs, 0, {0, 1, 2}, rng)
        value = max(0.0, value_rng.gauss({1: 5.0, 2: 10.0}[seller], 1.0))
        beliefs[seller] = update_belief(beliefs.get(seller, Belief(seller)), value)
        picks.append(seller)
    after_init = picks[2:]
    exploit_rate = sum(1 for p in after_init if p == 2) / len(after_init)
    assert exploit_rate >= 0.9

    # empirical exploit fraction of the mixed strategy, inverted from the
    # argmax-hit frequency: P(argmax) = eps + (1 - eps)/9 over nine others
    eps = 0.7
    mixed = TradingStrategy(Strategy.BANDIT_EXPLORE_EXPLOIT, exploit_fraction=eps)
    beliefs = {r: Belief(r, count=3, mean=float(r)) for r in range(1, 11)}
    rng = random.Random(derive_seed(ACCEPT_SEED, "eps"))
    hits = 0
    draws = 100_000
    for _ in range(draws):
        (pick,) = select_partners(mixed, beliefs, 0, set(range(11)), rng)
        hits += pick == 10
    eps_hat = (hits / draws - 1 / 10) / (1 - 1 / 10)
    _report(6, "EXPLOIT picks the better seller >= 90%; empirical eps within 0.01",
            abs(eps_hat - eps) <= 0.01,
            f"exploit rate {exploit_rate:.3f}, eps_hat {eps_hat:.4f}")


# -- 7. scaling with team size -------------------------------------------------------


def test_criterion_7_scaling_trend():
    started = time.monotonic()
    doc = bundled_scenario("scaling")
    # network load counts queries sent into the market, so the comparison
    # metric is market query traffic per robot
    per_robot = {}
    for strat in ("ALL", "BANDIT_EXPLORE"):
        for robots in (2, 3, 4, 5):
            doc["team"]["robots"] = robots
            doc["strategies"]["trading"] = strat
            cfg = parse_scenario_config(doc)
            trials = [run_trial(cfg, seed=ACCEPT_SEED, trial=t) for t in range(3)]
            per_robot[(strat, robots)] = statistics.mean(
                t.bytes_sent(kinds=("query",)) / robots for t in trials)
    all_series = [per_robot[("ALL", r)] for r in (2, 3, 4, 5)]
    bandit_r2 = per_robot[("BANDIT_EXPLORE", 2)]
    bandit_r5 = per_robot[("BANDIT_EXPLORE", 5)]
    increasing = all(a < b for a, b in zip(all_series, all_series[1:]))
    flat = abs(bandit_r5 - bandit_r2) <= 0.25 * bandit_r2
    elapsed = time.monotonic() - started
    _report(7, "per-robot bytes: ALL strictly grows with R, EXPLORE stays flat",
            increasing and flat and elapsed < 300.0,
            f"ALL {[round(v) for v in all_series]}, explore R5/R2 "
            f"{bandit_r5 / bandit_r2:.3f}, runtime {elapsed:.1f}s")


# -- 8. robustness vs the no-trade baseline --------------------------------------------


def _ccdf(values):
    n = len(values)
    return lambda x: (sum(1 for v in values if v >= x) / n) if n else 0.0


def test_criterion_8_robustness_trend():
    doc = bundled_scenario("robustness")
    pooled = {}
    for strat in ("ALL", "BANDIT_EXPLORE", "BANDIT_EXPLOIT",
                  "BANDIT_EXPLORE_EXPLOIT", "CENTRAL", "NONE"):
        doc["strategies"]["trading"] = strat
        cfg = parse_scenario_config(doc)
        pooled[strat] = [d for t in range(5)
                         for d in run_trial(cfg, seed=ACCEPT_SEED, trial=t).dropout_values()]
    base = pooled.pop("NONE")
    base_ccdf = _ccdf(base)
    for strat, values in pooled.items():
        xs = sorted(set(values) | set(base))
        mine = _ccdf(values)
        for x in xs:
            assert mine(x) <= base_ccdf(x) + 1e-12, f"{strat} at x={x}"
    _report(8, "every strategy's failure CCDF pointwise <= no-trade baseline",
            True, f"strategies {sorted(pooled)} over 5 trials")


# -- 9. shopping strategies -------------------------------------------------------------


def test_criterion_9_shopping_trend():
    doc = bundled_scenario("shopping")
    pooled = {}
    for shop in ("CURRENT", "WINDOW", "RECOMMEND"):
        doc["strategies"]["shopping"] = shop
        cfg = parse_scenario_config(doc)
        pooled[shop] = [d for t in range(5)
                        for d in run_trial(cfg, seed=ACCEPT_SEED, trial=t).dropout_values()]
    mean = {s: statistics.mean(v) for s, v in pooled.items()}
    ok = (mean["WINDOW"] <= mean["CURRENT"]
          and mean["RECOMMEND"] <= mean["CURRENT"]
          and max(pooled["RECOMMEND"]) <= max(pooled["CURRENT"]))
    _report(9, "WINDOW/RECOMMEND mean dropout <= CURRENT; RECOMMEND tail no worse",
            ok, f"means CURRENT {mean['CURRENT']:.1f} WINDOW {mean['WINDOW']:.1f} "
                f"RECOMMEND {mean['RECOMMEND']:.1f}")


# -- 10. bit-exact determinism ------------------------------------------------------------


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_10_determinism(tmp_path):
    doc = bundled_scenario("robustness")
    doc["sim"]["forays"] = 4
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(doc))
    hashes = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run-scenario", "--config", str(config_path), "--seed",
                     str(ACCEPT_SEED), "--trials", "2", "--out", str(out)]) == 0
        hashes.append(_tree_hash(out))
    _report(10, "repeated run-scenario produces byte-identical output trees",
            hashes[0] == hashes[1], f"tree hash {hashes[0][:16]}")
