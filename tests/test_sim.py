"""World, forays, network, and the scenario engine."""

import math
import random
import statistics

import numpy as np
import pytest

from expmarket import sim
from expmarket.catalogue import OutOfWorld, bundled_catalogue, product_of
from expmarket.config import bundled_scenario, parse_scenario_config
from expmarket.graph import Observation
from expmarket.ids import NodeIdGenerator, derive_seed
from expmarket.localiser import LocaliserConfig
from expmarket.merging import IntegrityViolation
from expmarket.patches import Repository
from expmarket.sim import (
    ADVISORY_BYTES,
    NetworkModel,
    _check_byte_conservation,
    deliver,
    failure_distribution,
    run_foray,
    run_trial,
)
from expmarket.world import Route, RoutePlan, World

from _oracles import connected_components


# -- world ----------------------------------------------------------------------


def test_world_observation_is_seed_deterministic():
    cat = bundled_catalogue("parks")
    w1 = World(cat, seed=5)
    w2 = World(cat, seed=5)
    o1 = w1.observe(2, 3, [125.0])[0]
    o2 = w2.observe(2, 3, [125.0])[0]
    assert o1 == o2
    w3 = World(cat, seed=6)
    assert w3.observe(2, 3, [125.0])[0] != o1


def _observe_one(world, robot, epoch, position):
    """One stop observed by the one-position formula, step by step."""
    extent = world.catalogue.total_metres
    if position < 0 or position >= extent:
        raise OutOfWorld(f"position {position} outside [0, {extent})")
    section = product_of(position, world.catalogue)
    bucket = int(position // world.config.node_spacing_m)
    rng = np.random.Generator(np.random.PCG64(
        derive_seed(world.seed, "noise", robot, epoch, bucket)))
    noise = rng.normal(0.0, world.config.noise_sigma, world.config.descriptor_dim)
    desc = world.latent(bucket) + world.drift(section, epoch) + noise
    return Observation(tuple(float(v) for v in desc), position, section)


def _bits(observations):
    return [(np.array(o.descriptor).tobytes(), o.true_position, o.product)
            for o in observations]


@pytest.mark.parametrize("name", ["parks", "table1"])
def test_world_observe_batch_matches_the_one_position_formula(name):
    """A batch gives, bit for bit, what the formula gives stop by stop: random
    stops, stops sharing a bucket, and stops on and beside every boundary."""
    cat = bundled_catalogue(name)
    rng = random.Random(derive_seed("observe-batch", name))
    bounds = cat.boundaries()
    edges = [p for b in bounds for p in (b, math.nextafter(b, -1.0), math.nextafter(b, math.inf))
             if 0 <= p < bounds[-1]]
    for case in range(12):
        world_seed = rng.getrandbits(128)
        batch, oracle = World(cat, seed=world_seed), World(cat, seed=world_seed)
        robot, epoch = rng.randrange(8), rng.randrange(1, 9)
        positions = [rng.uniform(0.0, bounds[-1]) for _ in range(rng.randrange(1, 40))]
        base = rng.uniform(0.0, bounds[-1] - 5.0)
        positions += [base, base + 0.5, math.floor(base / 5.0) * 5.0]  # shared buckets
        positions += rng.sample(edges, min(len(edges), 6))
        rng.shuffle(positions)
        got = batch.observe(robot, epoch, positions)
        want = [_observe_one(oracle, robot, epoch, p) for p in positions]
        assert _bits(got) == _bits(want), case
    assert World(cat, seed=1).observe(0, 1, []) == []


def test_world_observe_refuses_what_the_formula_refuses():
    cat = bundled_catalogue("parks")
    w = World(cat, seed=3)
    for bad in (-1.0, -5e-324, cat.total_metres, math.inf, math.nan):
        with pytest.raises(OutOfWorld) as one:
            _observe_one(World(cat, seed=3), 0, 1, bad)
        with pytest.raises(OutOfWorld) as batch:
            w.observe(0, 1, [10.0, bad, 20.0])
        assert str(batch.value) == str(one.value)


def test_world_drift_accumulates():
    cat = bundled_catalogue("parks")
    w = World(cat, seed=1)
    d1 = w.drift(0, 1)
    d5 = w.drift(0, 5)
    assert (d1 ** 2).sum() < (d5 ** 2).sum()


def test_world_same_place_same_epoch_looks_alike_across_robots():
    cat = bundled_catalogue("parks")
    w = World(cat, seed=9)
    a = w.observe(0, 2, [42.0])[0]
    b = w.observe(1, 2, [42.0])[0]
    dist = sum((x - y) ** 2 for x, y in zip(a.descriptor, b.descriptor)) ** 0.5
    assert dist < 0.12  # within merge-match threshold
    far = w.observe(0, 2, [442.0])[0]
    dist_far = sum((x - y) ** 2 for x, y in zip(a.descriptor, far.descriptor)) ** 0.5
    assert dist_far > 1.0


def test_route_positions_and_wrapping():
    r = Route(0.0, 100.0)
    pos = r.positions(5.0)
    assert pos[0] == 0.0 and pos[-1] == 95.0 and len(pos) == 20

    looped = Route(600.0, 700.0, wrap_at=640.0)
    wrapped = looped.positions(5.0)
    assert wrapped[0] == 600.0
    assert 0.0 in wrapped and max(wrapped) < 640.0


def test_route_plan_covers_all_sections_each_epoch():
    cat = bundled_catalogue("parks")  # 8 sections, cyclic
    plan = RoutePlan(cat, width=2, stride=2, shift=1)
    for epoch in range(1, 7):
        covered = set()
        for robot in range(4):
            covered.update(plan.sections_for(robot, epoch))
        assert covered == set(range(8))


# -- forays -----------------------------------------------------------------------


def _foray_setup(seed=0):
    cat = bundled_catalogue("parks")
    world = World(cat, seed=seed)
    repo = Repository(0)
    ids = NodeIdGenerator(seed, 0)
    return world, repo, ids


def test_foray_empty_map_single_full_dropout():
    world, repo, ids = _foray_setup()
    route = Route(0.0, 100.0)
    result = run_foray(repo, world, route, 1, LocaliserConfig(), ids)
    assert result.dropouts == [95.0]  # 20 stops, 19 travelled blind
    assert len(result.patch.insert_nodes) == 20


def test_foray_covered_map_no_dropouts():
    world, repo, ids = _foray_setup()
    route = Route(0.0, 100.0)
    first = run_foray(repo, world, route, 1, LocaliserConfig(), ids)
    repo.commit(first.patch)
    again = run_foray(repo, world, route, 1, LocaliserConfig(), ids)
    assert again.dropouts == []
    assert again.patch.is_empty()


def test_foray_half_covered_single_half_dropout():
    world, repo, ids = _foray_setup()
    cfg = LocaliserConfig()
    first = run_foray(repo, world, Route(0.0, 50.0), 1, cfg, ids)
    repo.commit(first.patch)
    result = run_foray(repo, world, Route(0.0, 100.0), 1, cfg, ids)
    assert len(result.dropouts) == 1
    assert abs(result.dropouts[0] - 50.0) <= 5.0
    assert len(result.patch.insert_nodes) == 10


def test_foray_dropout_total_bounded_by_route():
    world, repo, ids = _foray_setup(3)
    route = Route(80.0, 240.0)
    result = run_foray(repo, world, route, 2, LocaliserConfig(), ids)
    assert sum(result.dropouts) <= route.length


def test_foray_patch_chains_are_connected():
    world, repo, ids = _foray_setup(4)
    result = run_foray(repo, world, Route(0.0, 160.0), 1, LocaliserConfig(), ids)
    repo.commit(result.patch)
    assert len(connected_components(repo.graph)) == 1


def test_foray_bumps_path_memory():
    world, repo, ids = _foray_setup()
    first = run_foray(repo, world, Route(0.0, 50.0), 1, LocaliserConfig(), ids)
    repo.commit(first.patch)
    run_foray(repo, world, Route(0.0, 50.0), 1, LocaliserConfig(), ids)
    assert sum(n.path_memory for n in repo.graph.nodes()) == 10


# -- network ------------------------------------------------------------------------


def test_deliver_degenerate_latency():
    net = NetworkModel(latency_low_ms=100, latency_high_ms=100)
    assert deliver(net, 10, random.Random(0), src=0, dst=1) == 100.0


def test_deliver_mean_latency():
    net = NetworkModel(latency_low_ms=50, latency_high_ms=500)
    rng = random.Random(42)
    draws = [deliver(net, 0, rng) for _ in range(100_000)]
    assert abs(statistics.mean(draws) - 275.0) <= 5.0
    assert min(draws) >= 50.0 and max(draws) <= 500.0


def test_deliver_zero_byte_message_counts_nothing_but_delays():
    net = NetworkModel(latency_low_ms=10, latency_high_ms=20)
    arrival = deliver(net, 0, random.Random(1), src=0, dst=1)
    assert arrival >= 10.0
    assert net.sent[0]["query"] == 0
    assert net.received[1]["query"] == 0


def test_deliver_accounts_both_endpoints():
    net = NetworkModel()
    deliver(net, 123, random.Random(0), src=2, dst=4, kind="patch")
    assert net.sent[2]["patch"] == 123
    assert net.received[4]["patch"] == 123


def test_byte_conservation_error_names_trial_and_epoch():
    net = NetworkModel()
    deliver(net, 64, random.Random(0), src=0, dst=1, kind="patch")
    _check_byte_conservation(net, trial=2, k=5)
    deliver(net, 16, random.Random(0), src=1, kind="query")  # sent, never received
    with pytest.raises(RuntimeError, match=r"^trial 2 epoch 5: .*conservation"):
        _check_byte_conservation(net, trial=2, k=5)


def test_trade_integrity_error_names_the_trial(monkeypatch):
    def broken(left, right, policy, *, k, **kw):
        raise IntegrityViolation(f"trade k={k} buyer {left.robot} seller {right.robot}: "
                                 "trade did not converge to a common state")

    monkeypatch.setattr(sim, "execute_trade", broken)
    cfg = parse_scenario_config(bundled_scenario("shopping"))
    with pytest.raises(IntegrityViolation,
                       match=r"^trial 3 trade k=1 buyer 0 seller \d+: trade did not converge"):
        run_trial(cfg, seed=5, trial=3)


# -- failure distribution -------------------------------------------------------------


def test_failure_distribution_counting_oracle():
    got = failure_distribution([10.0, 20.0, 20.0, 40.0])
    assert got == [(10.0, 1.0), (20.0, 0.75), (40.0, 0.25)]


def test_failure_distribution_empty_and_single():
    assert failure_distribution([]) == []
    assert failure_distribution([7.0]) == [(7.0, 1.0)]


# -- scenario engine ------------------------------------------------------------------


def test_run_trial_deterministic_and_conserving():
    cfg = parse_scenario_config(bundled_scenario("shopping"))
    a = run_trial(cfg, seed=5, trial=0)
    b = run_trial(cfg, seed=5, trial=0)
    assert a == b
    assert a.bytes_sent() == a.bytes_received()
    assert run_trial(cfg, seed=6, trial=0) != a


def test_run_trial_team_converges_under_all_trading():
    doc = bundled_scenario("shopping")
    doc["strategies"]["shopping"] = "WINDOW"
    doc["strategies"]["window_radius"] = 4  # whole catalogue: full sync
    cfg = parse_scenario_config(doc)
    m = run_trial(cfg, seed=2, trial=0)
    assert len(set(m.final_digests)) == 1


def test_run_trial_dropouts_bounded_per_epoch():
    cfg = parse_scenario_config(bundled_scenario("robustness"))
    m = run_trial(cfg, seed=3, trial=0)
    route_len = 160.0
    for k in range(1, cfg.forays + 1):
        for robot in range(cfg.robots):
            total = sum(d for kk, r, d in m.dropouts if kk == k and r == robot)
            assert total <= route_len


def test_run_trial_trading_never_hurts_on_bundled_scenarios():
    for name in ("robustness", "shopping"):
        doc = bundled_scenario(name)
        base_doc = bundled_scenario(name)
        base_doc["strategies"]["trading"] = "NONE"
        for seed in (1, 2):
            with_trade = run_trial(parse_scenario_config(doc), seed=seed, trial=0)
            without = run_trial(parse_scenario_config(base_doc), seed=seed, trial=0)
            assert with_trade.total_dropout() <= without.total_dropout()


def test_run_trial_none_strategy_moves_no_bytes():
    doc = bundled_scenario("shopping")
    doc["strategies"]["trading"] = "NONE"
    m = run_trial(parse_scenario_config(doc), seed=1, trial=0)
    assert m.bytes_sent() == 0
    assert not m.trades


def test_advisory_traffic_accounted_separately():
    cfg = parse_scenario_config(bundled_scenario("shopping"))
    m = run_trial(cfg, seed=1, trial=0)
    advisory = m.bytes_sent(kinds=("advisory",))
    assert advisory == cfg.robots * (cfg.robots - 1) * cfg.forays * ADVISORY_BYTES


def test_run_scenario_jobs_pool_matches_serial():
    from expmarket.sim import run_scenario

    doc = bundled_scenario("shopping")
    doc["sim"]["forays"] = 2
    cfg = parse_scenario_config(doc)
    serial = run_scenario(cfg, seed=4, trials=2, jobs=1)
    pooled = run_scenario(cfg, seed=4, trials=2, jobs=2)
    assert serial == pooled


def test_run_scenario_starts_no_more_workers_than_trials_or_cpus(monkeypatch):
    """A process pool may start all its workers at the first submit, so its
    size is capped by the trial count and the CPU count as well as ``jobs``."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim, "run_trial", lambda config, seed, t: (seed, t))
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
    for trials, jobs in ((3, 5000), (50, 5000), (50, 4), (1, 5000)):
        assert sim.run_scenario(None, 5, trials, jobs) == [(5, t) for t in range(trials)]
    monkeypatch.setattr(sim.os, "cpu_count", lambda: None)  # unknown: one worker
    assert sim.run_scenario(None, 5, 3, 5000) == [(5, 0), (5, 1), (5, 2)]
    assert sizes == [3, 8, 4]  # one trial, or one CPU, runs in this process


def test_match_commutation_scenario_runs_and_converges_with_full_shopping():
    doc = bundled_scenario("scaling")
    doc["strategies"]["shopping"] = "WINDOW"
    doc["strategies"]["window_radius"] = 3  # whole loop: full convergence
    doc["sim"]["forays"] = 4
    cfg = parse_scenario_config(doc)
    m = run_trial(cfg, seed=8, trial=0)
    assert len(set(m.final_digests)) == 1
    assert any(t.nodes_deleted > 0 for t in m.trades)  # match merges really drop
