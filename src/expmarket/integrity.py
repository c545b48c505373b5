"""Integrity test battery and randomized convergence verification.

The battery turns a merge outcome into one binary test vector per node of
the divergent configuration; a corpus of configurations has sufficiently
exercised a battery of J tests once all 2^J vectors have been observed.
Faulted merges (reconnection off, deletes off) produce the failing vectors
on purpose; a battery trial derives their patches from the clean merge of
``merging.commute``, which has no fault mode.

The Monte Carlo harness replays the wholesale-trading fleet: every foray
each robot emits a toy patch of normally distributed size, all pairs trade
to quiescence, and the team's digests are compared at every convergence
point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .graph import Edge, Graph, Node
from .ids import NodeIdGenerator, derive_seed
from .merging import (Commutation, CommutationPolicy, _neighbours, _stranded_neighbour, commute,
                      execute_trade)
from .patches import Inserts, Patch, Repository, apply_patch, build_patch, diff
from .pose import Pose

TestVector = tuple[int, ...]


@dataclass(frozen=True)
class MergeTrial:
    """One divergent configuration together with its merge outcome."""

    left_patch: Patch
    right_patch: Patch
    left_graph: Graph
    right_graph: Graph
    post_left: Graph
    post_right: Graph
    drops_left: dict
    drops_right: dict

    def configuration_nodes(self) -> list[Node]:
        nodes = [*self.left_patch.insert_nodes.values(), *self.right_patch.insert_nodes.values()]
        return sorted(nodes, key=lambda n: n.id)


def _test_connectivity(node: Node, trial: MergeTrial) -> bool:
    """Dropped content must not strand its neighbourhood: every former
    neighbour of the dropped node ends adjacent (1-hop) to the kept node."""
    drops = {**trial.drops_left, **trial.drops_right}
    if node.id not in drops:
        return True
    pre = trial.left_graph if node.id in trial.left_graph else trial.right_graph
    # judge connectivity in the graph of the side that performed the delete
    post = trial.post_left if node.id in trial.drops_left and node.id in trial.left_graph \
        else trial.post_right if node.id in trial.right_graph else trial.post_left
    return _stranded_neighbour(_neighbours(pre, node.id), post, node.id, drops) is None


def _test_no_coexistence(node: Node, trial: MergeTrial) -> bool:
    """A matched pair's keeper and its dropped partner never appear together
    in either post-merge database."""
    pairs = []
    for drops in (trial.drops_left, trial.drops_right):
        if node.id in drops:
            pairs.append((drops[node.id], node.id))
        for drop_id, keep_id in drops.items():
            if keep_id == node.id:
                pairs.append((keep_id, drop_id))
    for keep_id, drop_id in pairs:
        for post in (trial.post_left, trial.post_right):
            if keep_id in post and drop_id in post:
                return False
    return True


# The battery, in test-vector order: a node's vector holds 1 at position j
# when test j passes for it.
_BATTERY = (_test_connectivity, _test_no_coexistence)


@dataclass
class CoverageReport:
    multiset: dict[TestVector, int]
    battery_size: int

    @property
    def distinct(self) -> int:
        return len(self.multiset)

    @property
    def sufficient(self) -> bool:
        return self.distinct == 2 ** self.battery_size


def merge_coverage(trials: Sequence[MergeTrial]) -> CoverageReport:
    """The battery's test vectors, one per configuration node of every
    trial, as one multiset."""
    total: dict[TestVector, int] = {}
    for trial in trials:
        for node in trial.configuration_nodes():
            vec = tuple(1 if test(node, trial) else 0 for test in _BATTERY)
            total[vec] = total.get(vec, 0) + 1
    return CoverageReport(total, len(_BATTERY))


# -- configuration generation ---------------------------------------------


@dataclass(frozen=True)
class GeneratorParams:
    base_size: tuple[int, int] = (2, 5)
    side_size: tuple[int, int] = (2, 8)
    overlap: float = 0.5  # fraction of the smaller side duplicated across the pair
    dim: int = 8
    duplicate_scale: float = 0.02  # descriptor perturbation for duplicates
    spread: float = 50.0  # spacing between distinct place descriptors


@dataclass(frozen=True)
class DivergentConfig:
    base: Graph
    left: Patch
    right: Patch

    def left_graph(self) -> Graph:
        return apply_patch(self.base, self.left)

    def right_graph(self) -> Graph:
        return apply_patch(self.base, self.right)


def _chain(nodes: list[Node], spacing: float = 5.0) -> list[Edge]:
    return [Edge(a.id, b.id, Pose.from_translation(spacing))
            for a, b in zip(nodes, nodes[1:])]


def generate_configurations(seed: int, count: int,
                            params: GeneratorParams = GeneratorParams()) -> list[DivergentConfig]:
    """Seeded corpus of divergent patch pairs with controllable overlap."""
    configs = []
    for i in range(count):
        rng = random.Random(derive_seed(seed, "config", i))
        ids = NodeIdGenerator(derive_seed(seed, "ids", i), 0)

        def far_descriptor() -> tuple[float, ...]:
            return tuple(rng.uniform(-params.spread, params.spread)
                         for _ in range(params.dim))

        def mint(desc, foray) -> Node:
            return Node(id=ids.next_id(), descriptor=desc,
                        inlier_count=rng.randrange(0, 100),
                        fabmap_score=rng.random(),
                        path_memory=rng.randrange(0, 10),
                        product=0, creator=foray, foray=foray)

        base_nodes = [mint(far_descriptor(), 0) for _ in range(rng.randint(*params.base_size))]
        base = Graph()
        for n in base_nodes:
            base.insert_node(n)
        for e in _chain(base_nodes):
            base.insert_edge(e)

        n_left = rng.randint(*params.side_size)
        n_right = rng.randint(*params.side_size)
        left_nodes = [mint(far_descriptor(), 1) for _ in range(n_left)]
        dup_count = round(params.overlap * min(n_left, n_right))
        partners = rng.sample(range(n_left), dup_count)
        right_nodes = []
        for j in range(n_right):
            if j < dup_count:
                src = left_nodes[partners[j]]
                desc = tuple(v + rng.uniform(-params.duplicate_scale, params.duplicate_scale)
                             for v in src.descriptor)
            else:
                desc = far_descriptor()
            right_nodes.append(mint(desc, 2))
        rng.shuffle(right_nodes)

        def side_patch(nodes: list[Node]) -> Patch:
            edges = set(_chain(nodes))
            if base_nodes and nodes:
                entry = rng.choice(base_nodes)
                edges.add(Edge(entry.id, nodes[0].id, Pose.from_translation(5.0)))
            return build_patch(base, insert_nodes=nodes, insert_edges=edges)

        configs.append(DivergentConfig(base, side_patch(left_nodes), side_patch(right_nodes)))
    return configs


FAULTS = frozenset({"no_delete", "no_reconnect"})


def _faulted_patch(side: Graph, clean: Patch, carried: Inserts, faults: frozenset[str]) -> Patch:
    """``side``'s clean merge patch with ``faults`` applied, given the diff
    content ``carried`` to it: ``no_reconnect`` drops its rewired edges and
    keeps the carried ones, and ``no_delete`` deletes nothing and also
    inserts every carried node and edge."""
    edges = clean.insert_edges & carried.insert_edges if "no_reconnect" in faults \
        else clean.insert_edges
    if "no_delete" in faults:
        return build_patch(side, insert_nodes=carried.insert_nodes.values(),
                           insert_edges=edges | carried.insert_edges)
    return build_patch(side, insert_nodes=clean.insert_nodes.values(), insert_edges=edges,
                       delete_ids=clean.delete_nodes)


def run_battery_trial(config: DivergentConfig, policy: CommutationPolicy,
                      faults: frozenset[str] = frozenset()) -> MergeTrial:
    """Merge one configuration through ``commute``, apply ``faults`` (of
    ``FAULTS``) to both sides' patches, and package the outcome; the post
    graphs are the two sides' patched copies. An unknown fault name raises
    ``ValueError`` before anything is merged."""
    if unknown := set(faults) - FAULTS:
        raise ValueError(f"unknown faults {sorted(unknown)}; known: {sorted(FAULTS)}")
    policy.require_symmetric()
    left_graph, right_graph = config.left_graph(), config.right_graph()
    incoming, outgoing = diff(left_graph, right_graph)
    pair = commute(incoming, outgoing, policy, left_graph, right_graph)
    for_left, for_right = pair.for_left, pair.for_right
    if faults:
        for_left = _faulted_patch(left_graph, for_left, incoming, faults)
        for_right = _faulted_patch(right_graph, for_right, outgoing, faults)
    return MergeTrial(left_patch=config.left, right_patch=config.right,
                      left_graph=left_graph, right_graph=right_graph,
                      post_left=apply_patch(left_graph, for_left),
                      post_right=apply_patch(right_graph, for_right),
                      drops_left=pair.drops_left, drops_right=pair.drops_right)


# -- Monte Carlo convergence ------------------------------------------------

# Toy descriptors are drawn uniformly from [-_TOY_SPREAD, _TOY_SPREAD]^_TOY_DIM,
# so distinct places lie far beyond any match threshold.
_TOY_DIM = 8
_TOY_SPREAD = 1000.0
# Round-robin sweeps of all pairs before trading must have gone quiet.
_MAX_SWEEPS = 16


@dataclass
class ConvergenceReport:
    R: int
    K: int
    M: int
    policy: str
    divergence_events: int
    # (trial, k, robot) -> node count / digest hex prefix
    node_counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    mutual_history: list[list[int]] = field(default_factory=list)

    def counts_at(self, k: int) -> list[int]:
        return [self.node_counts[(m, k, r)]
                for m in range(self.M) for r in range(self.R)
                if (m, k, r) in self.node_counts]

    def counts_per_trial(self, k: int, robot: int = 0) -> list[int]:
        return [self.node_counts[(m, k, robot)] for m in range(self.M)]


def _toy_patch(repo: Repository, size: int, rng: random.Random,
               ids: NodeIdGenerator, foray: int, dup_pool: list[Node],
               overlap: float, dup_scale: float) -> Patch:
    # rng.uniform(a, b) inlined as the a + (b - a) * rng.random() it evaluates
    random, dup_lo, lo = rng.random, -dup_scale, -_TOY_SPREAD
    dup_width, width = dup_scale - dup_lo, _TOY_SPREAD - lo
    nodes = []
    for _ in range(size):
        if dup_pool and random() < overlap:
            src = rng.choice(dup_pool)
            desc = tuple([v + (dup_lo + dup_width * random()) for v in src.descriptor])
        else:
            desc = tuple([lo + width * random() for _ in range(_TOY_DIM)])
        nodes.append(Node(id=ids.next_id(), descriptor=desc,
                          inlier_count=rng.randrange(0, 100),
                          fabmap_score=rng.random(),
                          creator=repo.robot, foray=foray))
    return build_patch(repo.graph, insert_nodes=nodes, insert_edges=_chain(nodes))


def sweep_all_pairs(repos: list[Repository], policy: CommutationPolicy) -> list[Repository]:
    """Distributed-query-all: round-robin pairwise trades until quiescent.

    Trades do not enforce convergence: a divergence is what the caller counts.
    """
    for _ in range(_MAX_SWEEPS):
        changed = False
        for i in range(len(repos)):
            for j in range(i + 1, len(repos)):
                before = (repos[i].digest(), repos[j].digest())
                execute_trade(repos[i], repos[j], policy, enforce=False)
                if (repos[i].digest(), repos[j].digest()) != before:
                    changed = True
        if not changed:
            return repos
    raise RuntimeError("trading never reached quiescence")


def monte_carlo_convergence(R: int, K: int, M: int,
                            mu, sigma,
                            policy: CommutationPolicy | None = None,
                            seed: int = 0, overlap: float = 0.0) -> ConvergenceReport:
    """Fleet-wide convergence check over M seeded trials.

    Per foray, robot i contributes a toy patch whose size is drawn from
    N(mu_i, sigma_i^2), rounded and clamped at zero; all pairs then trade
    wholesale. A divergence event is any convergence point where two team
    members disagree on the state digest.
    """
    if R < 2 or K < 1 or M < 1:
        raise ValueError("need R >= 2, K >= 1, M >= 1")
    policy = policy or CommutationPolicy(Commutation.UNION)
    mus = list(mu) if hasattr(mu, "__len__") else [float(mu)] * R
    sigmas = list(sigma) if hasattr(sigma, "__len__") else [float(sigma)] * R
    if len(mus) != R or len(sigmas) != R:
        raise ValueError("mu/sigma must be scalars or length-R sequences")

    report = ConvergenceReport(R=R, K=K, M=M, policy=policy.kind.value,
                               divergence_events=0,
                               mutual_history=[[0] * R for _ in range(R)])
    dup_scale = policy.localiser.tau_m / 4.0
    for m in range(M):
        repos = [Repository(i) for i in range(R)]
        rng = random.Random(derive_seed(seed, "trial", m))
        idgens = [NodeIdGenerator(derive_seed(seed, "trial", m), i) for i in range(R)]
        for k in range(1, K + 1):
            pool: list[Node] = []
            for i in range(R):
                size = max(0, round(rng.gauss(mus[i], sigmas[i])))
                patch = _toy_patch(repos[i], size, rng, idgens[i], k, pool,
                                   overlap if i > 0 else 0.0, dup_scale)
                # duplicates are drawn in id order, whatever order the patch was built in
                pool = sorted(patch.insert_nodes.values(), key=lambda n: n.id)
                repos[i].commit(patch)
            repos = sweep_all_pairs(repos, policy)
            digests = [r.digest() for r in repos]
            if len(set(digests)) > 1:
                report.divergence_events += 1
            for i in range(R):
                report.node_counts[(m, k, i)] = len(repos[i].graph)
                report.digests[(m, k, i)] = digests[i].hex()[:8]
                for j in range(R):
                    if digests[i] == digests[j]:
                        report.mutual_history[i][j] += 1
    return report
