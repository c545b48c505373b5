"""The deterministic fleet simulator.

Each epoch every robot maps its route, then the team walks the trade
pipeline through the shared finite-state machine: size its market query,
tender it to the sellers the trading strategy selects, settle a shopping
list, and merge the exchanged patches. Every strategy but ALL selects at
most one seller, and ALL buys from every seller it tendered to, so a
tender's reply carries no offer, only its bytes. Barriers demand identical
(state, semaphore) across the team before anyone advances. Everything is
driven by streams derived from (seed, trial), so a scenario run is a pure
function of its config and seed.
"""

from __future__ import annotations

import enum
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .catalogue import (
    Advisory,
    ProductLedger,
    advise,
    product_of,
    shopping_list,
)
from .config import ScenarioConfig
from .foray import MetadataFn, _default_metadata, record_foray_patch
from .ids import NodeIdGenerator, RobotId, derive_seed, seed_stream
from .localiser import LocaliserConfig, MatchCounter, localise_batch
from .market import (
    Belief,
    Strategy,
    price_nodes,
    query_bytes,
    select_partners,
    update_belief,
)
from .merging import IntegrityViolation, TradeStats, execute_trade
from .patches import Patch, Repository
from .world import Route, World

TENDER_REPLY_BYTES = 16
ADVISORY_BYTES = 64


class DesyncDetected(Exception):
    """Two robots share a semaphore value but disagree on the state."""


class Phase(enum.Enum):
    IDLE = "IDLE"
    MAPPING = "MAPPING"
    SAMPLING = "SAMPLING"
    TENDERING = "TENDERING"
    PURCHASING = "PURCHASING"
    MERGING = "MERGING"


_CYCLE = [Phase.MAPPING, Phase.SAMPLING, Phase.TENDERING,
          Phase.PURCHASING, Phase.MERGING, Phase.IDLE]


@dataclass(frozen=True)
class FsmState:
    """Published robot state: descriptor plus iteration semaphore."""

    theta: Phase = Phase.IDLE
    psi: int = 0

    def advance(self) -> "FsmState":
        if self.theta is Phase.IDLE:
            return FsmState(Phase.MAPPING, self.psi + 1)
        nxt = _CYCLE[_CYCLE.index(self.theta) + 1]
        return FsmState(nxt, self.psi)


def barrier_sync(team_states: dict[RobotId, FsmState]) -> bool:
    """Proceed only when the whole team publishes one (state, semaphore)."""
    states = list(team_states.values())
    if not states:
        return True
    by_psi: dict[int, set[Phase]] = {}
    for st in states:
        by_psi.setdefault(st.psi, set()).add(st.theta)
    for psi, thetas in by_psi.items():
        if len(thetas) > 1:
            raise DesyncDetected(f"semaphore {psi} reported with states "
                                 f"{sorted(t.value for t in thetas)}")
    first = states[0]
    return all(st == first for st in states)


@dataclass
class NetworkModel:
    """Simulated transport: uniform latency, per-robot byte ledgers of one epoch."""

    latency_low_ms: float = 50.0
    latency_high_ms: float = 500.0
    clock_ms: float = 0.0
    sent: dict = field(default_factory=dict)       # robot -> {kind: bytes}
    received: dict = field(default_factory=dict)

    def _account(self, ledger: dict, robot: RobotId, kind: str, n: int) -> None:
        ledger.setdefault(robot, {})
        ledger[robot][kind] = ledger[robot].get(kind, 0) + n


def deliver(net: NetworkModel, msg_bytes: int, rng: random.Random,
            src: RobotId | None = None, dst: RobotId | None = None,
            kind: str = "query") -> float:
    """Ship a message: returns its arrival time on the simulated clock."""
    if msg_bytes < 0:
        raise ValueError("negative message size")
    arrival = net.clock_ms + rng.uniform(net.latency_low_ms, net.latency_high_ms)
    if src is not None:
        net._account(net.sent, src, kind, msg_bytes)
    if dst is not None:
        net._account(net.received, dst, kind, msg_bytes)
    return arrival


def failure_distribution(dropouts) -> list[tuple[float, float]]:
    """Empirical complementary CDF: P(X >= x) at each distinct dropout."""
    values = sorted(dropouts)
    n = len(values)
    if n == 0:
        return []
    out = []
    for i, x in enumerate(values):
        if i > 0 and x == values[i - 1]:
            continue
        out.append((x, (n - i) / n))
    return out


@dataclass
class ForayResult:
    patch: Patch
    dropouts: list[float]
    final_position: float


def run_foray(repo: Repository, world: World, route: Route, epoch: int,
              localiser: LocaliserConfig, ids: NodeIdGenerator,
              metadata: MetadataFn = _default_metadata,
              counter: MatchCounter | None = None) -> ForayResult:
    """Walk a route: observe every stop in one ``World.observe`` and localise
    them in one ``localise_batch``, then record the unexplained as a patch.

    Blind travel accumulates while localisation fails and flushes into the
    drop-out list at the next success or the route's end; the first stop
    contributes no distance (nothing was travelled blind to reach it).
    """
    spacing = world.config.node_spacing_m
    positions = route.positions(spacing)
    observations = world.observe(repo.robot, epoch, positions)
    explained = localise_batch(repo.graph, observations, localiser, counter)
    dropouts: list[float] = []
    run = 0.0
    for m, hit in enumerate(explained):
        if hit is None:
            if m > 0:
                run += spacing
        else:
            repo.graph.bump_path_memory(hit)
            if run > 0:
                dropouts.append(run)
                run = 0.0
    if run > 0:
        dropouts.append(run)
    patch = record_foray_patch(repo.graph, observations, explained, repo.robot,
                               epoch, ids, metadata=metadata)
    return ForayResult(patch, dropouts, positions[-1])


@dataclass
class TrialMetrics:
    """Everything one trial leaves behind (all rows keyed by epoch)."""

    trial: int
    seed: int
    robots: int
    forays: int
    strategy: str
    dropouts: list[tuple[int, int, float]] = field(default_factory=list)
    # k, robot, sent query/patch/advisory, received query/patch/advisory, match ops
    traffic: list[tuple[int, int, int, int, int, int, int, int, int]] = field(default_factory=list)
    map_sizes: list[tuple[int, int, int, int]] = field(default_factory=list)
    trades: list[TradeStats] = field(default_factory=list)
    beliefs: list[tuple[int, int, int, int, float, float]] = field(default_factory=list)
    final_digests: list[str] = field(default_factory=list)
    clock_ms: float = 0.0

    _KIND_COLS = {"query": 0, "patch": 1, "advisory": 2}

    def dropout_values(self, robot: RobotId | None = None) -> list[float]:
        return [d for k, r, d in self.dropouts if robot is None or r == robot]

    def total_dropout(self, robot: RobotId | None = None) -> float:
        return sum(self.dropout_values(robot))

    def bytes_sent(self, robot: RobotId | None = None,
                   kinds=("query", "patch", "advisory")) -> int:
        cols = [2 + self._KIND_COLS[k] for k in kinds]
        return sum(sum(row[c] for c in cols) for row in self.traffic
                   if robot is None or row[1] == robot)

    def bytes_received(self, robot: RobotId | None = None,
                       kinds=("query", "patch", "advisory")) -> int:
        cols = [5 + self._KIND_COLS[k] for k in kinds]
        return sum(sum(row[c] for c in cols) for row in self.traffic
                   if robot is None or row[1] == robot)

    def match_ops(self, robot: RobotId | None = None) -> int:
        return sum(row[8] for row in self.traffic if robot is None or row[1] == robot)


class _Agent:
    """One robot: its repository, ledgers, beliefs and this epoch's work."""

    def __init__(self, robot: RobotId, trial_seed: int):
        self.robot = robot
        self.repo = Repository(robot)
        self.ledger = ProductLedger()
        self.beliefs: dict[RobotId, Belief] = {}
        self.product_beliefs: dict[int, dict[RobotId, Belief]] = {}
        self.counter = MatchCounter()  # this epoch's descriptor comparisons
        self.ids = NodeIdGenerator(trial_seed, robot)
        self.partner_rng = random.Random(derive_seed(trial_seed, "partners", robot))
        self.fsm = FsmState()
        # this epoch's work, published phase by phase
        self.foray: Patch | None = None  # MAPPING: what the foray recorded
        self.position = 0.0  # MAPPING: where the route ended
        self.sample = 0  # SAMPLING: the bytes of the market query
        self.sellers: list[RobotId] = []  # TENDERING: who to buy from, by id
        self.wanted: set[int] = set()  # PURCHASING: the shopping list

    def belief_about(self, seller: RobotId) -> Belief:
        return self.beliefs.get(seller, Belief(seller))

    def observe_trade(self, seller: RobotId, patch: Patch, choice_policy) -> None:
        nodes = patch.insert_nodes.values()
        self.beliefs[seller] = update_belief(self.belief_about(seller),
                                             price_nodes(nodes, choice_policy))
        by_product: dict[int, list] = {}
        for n in nodes:
            by_product.setdefault(n.product, []).append(n)
        for product, pnodes in by_product.items():
            cell = self.product_beliefs.setdefault(product, {})
            cell[seller] = update_belief(cell.get(seller, Belief(seller)),
                                         price_nodes(pnodes, choice_policy))


class _Trial:
    """One trial's world, network, team and gossip, handed from phase to phase."""

    def __init__(self, config: ScenarioConfig, seed: int, trial: int):
        self.config = config
        self.trial_seed = derive_seed(seed, "trial", trial)
        self.world = World(config.catalogue, derive_seed(self.trial_seed, "world"),
                           config.world)
        self.net = NetworkModel(config.latency_low_ms, config.latency_high_ms)
        self.net_rng = random.Random(derive_seed(self.trial_seed, "net"))
        self.team = set(range(config.robots))
        self.agents = [_Agent(i, self.trial_seed) for i in range(config.robots)]
        self.metrics = TrialMetrics(trial=trial, seed=seed, robots=config.robots,
                                    forays=config.forays,
                                    strategy=config.trading.kind.value)
        self.advisories: dict[RobotId, Advisory] = {}


def _advance_all(agents: list[_Agent], expected: Phase) -> None:
    """Step every robot's FSM and hold the barrier at the expected phase."""
    for a in agents:
        a.fsm = a.fsm.advance()
    states = {a.robot: a.fsm for a in agents}
    if not barrier_sync(states):
        raise DesyncDetected("lockstep pipeline lost synchronization")
    if agents and agents[0].fsm.theta is not expected:
        raise DesyncDetected(f"expected {expected}, at {agents[0].fsm.theta}")


def _quality(config: ScenarioConfig, robot: RobotId, seeds: Callable[[int], int],
             m: int) -> tuple[int, float]:
    """Seeded (inliers, FAB-MAP score) of a robot's m-th node, from its foray's ``seeds``."""
    inlier_mu = config.quality_inlier_means[robot]
    fabmap_mu = config.quality_fabmap_means[robot]
    rng = random.Random(seeds(m))
    inliers = max(0, round(rng.gauss(inlier_mu, max(inlier_mu / 10.0, 0.5))))
    fabmap = min(1.0, max(0.0, rng.gauss(fabmap_mu, 0.1)))
    return inliers, fabmap


def _mapping(t: _Trial, k: int) -> None:
    """MAPPING: every robot walks its route and commits what it recorded."""
    _advance_all(t.agents, Phase.MAPPING)
    for a in t.agents:
        route = t.config.routes.route_for(a.robot, k)
        quality_seeds = seed_stream(t.trial_seed, "quality", a.robot, k)
        result = run_foray(a.repo, t.world, route, k, t.config.commutation.localiser,
                           a.ids, metadata=partial(_quality, t.config, a.robot, quality_seeds),
                           counter=a.counter)
        if not result.patch.is_empty():
            a.repo.commit(result.patch)
        a.foray, a.position = result.patch, result.final_position
        for d in result.dropouts:
            t.metrics.dropouts.append((k, a.robot, d))


def _sampling(t: _Trial) -> None:
    """SAMPLING: each robot sizes the market query its new content makes."""
    _advance_all(t.agents, Phase.SAMPLING)
    for a in t.agents:
        a.sample = query_bytes(a.foray, t.config.budget)


def _tendering(t: _Trial) -> None:
    """TENDERING: each buyer selects its sellers and sends each its query;
    each seller's fixed-size reply is charged to the network."""
    _advance_all(t.agents, Phase.TENDERING)
    config, net = t.config, t.net
    arrivals = [net.clock_ms]
    for a in t.agents:
        a.sellers = sorted(select_partners(config.trading, a.beliefs, a.robot,
                                           t.team, a.partner_rng))
        for j in a.sellers:
            arrivals.append(deliver(net, a.sample, t.net_rng, src=a.robot, dst=j,
                                    kind="query"))
            arrivals.append(deliver(net, TENDER_REPLY_BYTES, t.net_rng,
                                    src=j, dst=a.robot, kind="query"))
    net.clock_ms = max(arrivals)


def _purchasing(t: _Trial) -> None:
    """PURCHASING: each buyer with a seller settles its shopping list."""
    _advance_all(t.agents, Phase.PURCHASING)
    config = t.config
    for a in t.agents:
        if a.sellers:
            current = product_of(a.position, config.catalogue)
            a.wanted = shopping_list(config.shopping, current, config.catalogue,
                                     t.advisories, buyer=a.robot)


def _merging(t: _Trial, k: int) -> None:
    """MERGING: every buyer trades with its sellers, then advisories go out."""
    _advance_all(t.agents, Phase.MERGING)
    config, net = t.config, t.net
    arrivals = [net.clock_ms]
    for a_buy in t.agents:
        for seller in a_buy.sellers:
            a_sell = t.agents[seller]
            merge_counter = MatchCounter()
            try:
                out = execute_trade(a_buy.repo, a_sell.repo, config.commutation,
                                    products=a_buy.wanted, k=k,
                                    counter=merge_counter)
            except IntegrityViolation as err:
                raise IntegrityViolation(f"trial {t.metrics.trial} {err}") from err
            t.metrics.trades.append(out.stats)
            # each side: the patch it receives, the patch it delivers, the bytes in
            for me, other, received, delivered, size in (
                    (a_buy, a_sell, out.pair.for_left, out.pair.for_right, out.stats.bytes_in),
                    (a_sell, a_buy, out.pair.for_right, out.pair.for_left, out.stats.bytes_out)):
                me.counter.add(merge_counter.ops)
                arrivals.append(deliver(net, size, t.net_rng, src=other.robot,
                                        dst=me.robot, kind="patch"))
                me.observe_trade(other.robot, received, config.commutation.choice)
                me.ledger.bought(received)
                me.ledger.sold(delivered)

    # advisories travel at the barrier out of MERGING
    if config.trading.kind is not Strategy.NONE:
        for a in t.agents:
            favourites = {}
            for product in sorted(a.product_beliefs):
                best = advise(a.product_beliefs, product)
                if best is not None:
                    favourites[product] = best
            t.advisories[a.robot] = Advisory(
                favourite_sellers=favourites,
                advertisement=a.ledger.advertise(),
            )
            for other in sorted(t.team - {a.robot}):
                arrivals.append(deliver(net, ADVISORY_BYTES, t.net_rng,
                                        src=a.robot, dst=other, kind="advisory"))
    net.clock_ms = max(arrivals)


def _snapshot(t: _Trial, k: int) -> None:
    """IDLE: record the epoch, check its invariants, open the next epoch's ledgers."""
    _advance_all(t.agents, Phase.IDLE)
    net, metrics = t.net, t.metrics
    for a in t.agents:
        metrics.map_sizes.append((k, a.robot, len(a.repo.graph),
                                  a.repo.graph.edge_count()))
        sent, received = net.sent.get(a.robot, {}), net.received.get(a.robot, {})
        metrics.traffic.append((k, a.robot,
                                *(sent.get(kind, 0) for kind in metrics._KIND_COLS),
                                *(received.get(kind, 0) for kind in metrics._KIND_COLS),
                                a.counter.ops))
        for seller in sorted(a.beliefs):
            b = a.beliefs[seller]
            metrics.beliefs.append((k, a.robot, seller, b.count,
                                    b.mean, b.variance))
        a.counter = MatchCounter()
    _check_byte_conservation(net, metrics.trial, k)
    net.sent, net.received = {}, {}


def run_trial(config: ScenarioConfig, seed: int, trial: int) -> TrialMetrics:
    """One seeded trial of the scenario: K epochs of map-then-trade."""
    t = _Trial(config, seed, trial)
    for k in range(1, config.forays + 1):
        _mapping(t, k)
        _sampling(t)
        _tendering(t)
        _purchasing(t)
        _merging(t, k)
        _snapshot(t, k)
    t.metrics.final_digests = [a.repo.digest().hex() for a in t.agents]
    t.metrics.clock_ms = t.net.clock_ms
    return t.metrics


def _check_byte_conservation(net: NetworkModel, trial: int, k: int) -> None:
    """Every byte sent in the epoch was received in it."""
    sent = sum(sum(kinds.values()) for kinds in net.sent.values())
    received = sum(sum(kinds.values()) for kinds in net.received.values())
    if sent != received:
        raise RuntimeError(f"trial {trial} epoch {k}: network byte conservation "
                           f"violated ({sent} bytes sent, {received} received)")


def run_scenario(config: ScenarioConfig, seed: int, trials: int = 1,
                 jobs: int = 1) -> list[TrialMetrics]:
    """Run M seeded trials; results are ordered by trial index."""
    if trials < 1:
        raise ValueError("need at least one trial")
    # a process pool may start all its workers at its first submit
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial, config, seed, t) for t in range(trials)]
            return [f.result() for f in futures]
    return [run_trial(config, seed, t) for t in range(trials)]
