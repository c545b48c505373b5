"""Pricing, beliefs, query sampling, tender adjudication, partner selection.

A patch's price is the mean choice-policy value of its inserted nodes, so
it reads as a per-packet figure regardless of patch size. Each agent keeps
a streaming mean/variance belief per seller (Welford accumulation, exactly
the recurrences the pricing model defines) and chooses partners with one of
the team strategies.

Note the exploration convention: ``exploit_fraction`` is the fraction of
trades spent exploiting the best seller, and the remainder explores. This
inverts the common epsilon-greedy naming on purpose; the config key is
spelled out to prevent misuse.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .ids import RobotId
from .merging import ChoicePolicy, gamma_score
from .patches import Patch


class EmptyPatch(Exception):
    """A price needs at least one inserted node."""


class NoEligibleSellers(Exception):
    pass


@dataclass(frozen=True)
class Measurement:
    """The realized value of one trade with one seller."""

    seller: RobotId
    k: int
    value: float


@dataclass(frozen=True)
class Belief:
    """Running mean/variance of trade value for one seller.

    ``m2`` is the running sum of squared deviations; sample variance is
    m2 / (count - 1) once two measurements exist. A zero count marks the
    belief as uninitialized.
    """

    seller: RobotId
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @property
    def initialized(self) -> bool:
        return self.count > 0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)


def price_patch(patch: Patch, policy: ChoicePolicy) -> float:
    """Mean node value of a patch: its per-packet price."""
    nodes = patch.insert_nodes.values()
    if not nodes:
        raise EmptyPatch("cannot price a patch with no inserts")
    return price_nodes(nodes, policy)


def price_nodes(nodes, policy: ChoicePolicy) -> float:
    """Mean value of a bare node collection (tender offers use this)."""
    nodes = list(nodes)
    if not nodes:
        return 0.0
    return sum(gamma_score(n, policy) for n in nodes) / len(nodes)


def update_belief(belief: Belief, m: Measurement) -> Belief:
    """Fold one measurement into the streaming mean/variance."""
    if m.seller != belief.seller:
        raise ValueError("measurement is about a different seller")
    count = belief.count + 1
    delta = m.value - belief.mean
    mean = belief.mean + delta / count
    m2 = belief.m2 + delta * (m.value - mean)
    return Belief(seller=belief.seller, count=count, mean=mean, m2=m2)


@dataclass(frozen=True)
class SamplingBudget:
    max_nodes: int = 10
    bytes_per_node: int = 256

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


def sample_for_query(new_content: Patch, budget: SamplingBudget,
                     policy: ChoicePolicy) -> Patch:
    """Down-sample newly recorded content for a market query.

    Keeps the budget's worth of highest-value nodes (ties by id), with edges
    restricted to surviving endpoints. The result is a query artifact, not an
    applicable patch, so its endpoint states are zeroed out.
    """
    nodes = sorted(new_content.insert_nodes.values(),
                   key=lambda n: (-gamma_score(n, policy), n.id))
    chosen = {n.id: n for n in nodes[: budget.max_nodes]}
    edges = frozenset(e for e in new_content.insert_edges
                      if e.src in chosen and e.dst in chosen)
    zero = b"\x00" * 32
    return Patch(zero, zero, chosen, {}, edges)


def query_bytes(sample: Patch, budget: SamplingBudget) -> int:
    """Network charge for sending a query sample."""
    return len(sample.insert_nodes) * budget.bytes_per_node


def adjudicate(offers: dict[RobotId, float], beliefs: dict[RobotId, Belief]) -> RobotId:
    """Pick the seller whose tender deviates least from my belief about them.

    Callers exclude uninitialized sellers before asking. Ties go to the
    smallest seller id; enumeration order of the offers never matters.
    """
    eligible = [(abs(offer - beliefs[sid].mean), sid)
                for sid, offer in offers.items()
                if sid in beliefs and beliefs[sid].initialized]
    if not eligible:
        raise NoEligibleSellers("no initialized sellers among the offers")
    return min(eligible)[1]


class Strategy(enum.Enum):
    ALL = "ALL"
    BANDIT_EXPLORE = "BANDIT_EXPLORE"
    BANDIT_EXPLOIT = "BANDIT_EXPLOIT"
    BANDIT_EXPLORE_EXPLOIT = "BANDIT_EXPLORE_EXPLOIT"
    CENTRAL = "CENTRAL"
    NONE = "NONE"  # no-trade baseline


BANDIT_STRATEGIES = frozenset({
    Strategy.BANDIT_EXPLORE,
    Strategy.BANDIT_EXPLOIT,
    Strategy.BANDIT_EXPLORE_EXPLOIT,
})


@dataclass(frozen=True)
class TradingStrategy:
    kind: Strategy
    exploit_fraction: float = 0.7  # used by BANDIT_EXPLORE_EXPLOIT only
    central_id: RobotId = 0

    def __post_init__(self):
        if not 0.0 <= self.exploit_fraction <= 1.0:
            raise ValueError("exploit_fraction must be in [0, 1]")


def select_partners(strategy: TradingStrategy, beliefs: dict[RobotId, Belief],
                    self_id: RobotId, team: set[RobotId],
                    rng: random.Random) -> frozenset[RobotId]:
    """Who to trade with this round.

    Bandit strategies first visit every seller with an uninitialized belief,
    round-robin, so that cold-start expectations are grounded in a real
    measurement rather than an optimistic constant. The central robot under
    CENTRAL initiates no trades of its own (it converges by serving).
    """
    others = sorted(team - {self_id})
    if len(team) < 2:
        raise ValueError("a market needs at least two robots")
    kind = strategy.kind
    if kind is Strategy.NONE:
        return frozenset()
    if kind is Strategy.ALL:
        return frozenset(others)
    if kind is Strategy.CENTRAL:
        if self_id == strategy.central_id:
            return frozenset()
        return frozenset({strategy.central_id})
    # bandit family: forced initialization round first
    unseen = [r for r in others if not beliefs.get(r, Belief(r)).initialized]
    if unseen:
        return frozenset({unseen[0]})
    if kind is Strategy.BANDIT_EXPLORE:
        return frozenset({rng.choice(others)})
    if kind is Strategy.BANDIT_EXPLOIT:
        return frozenset({_best_seller(beliefs, others)})
    if kind is Strategy.BANDIT_EXPLORE_EXPLOIT:
        if rng.random() < strategy.exploit_fraction:
            return frozenset({_best_seller(beliefs, others)})
        return frozenset({rng.choice(others)})
    raise ValueError(f"unknown strategy {kind}")


def _best_seller(beliefs: dict[RobotId, Belief], others) -> RobotId:
    return max(others, key=lambda r: (beliefs[r].mean, -r))
