"""Synthetic localiser: appearance seeding, localisation, cross-patch matching.

Stands in for the visual pipeline: a match is a descriptor within threshold,
found by expanding graph neighbourhoods around appearance-space seeds. Every
descriptor comparison is counted through the caller's MatchCounter, which is
the deterministic stand-in for CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DescriptorIndex, Graph, Observation, neighbourhood
from .ids import NodeId
from .patches import Inserts, Patch


@dataclass
class LocaliserConfig:
    tau_loc: float = 0.3  # descriptor distance accepted as a localisation
    tau_m: float = 0.12  # distance accepted as a merge match
    seed_k: int = 3
    depth: int = 2

    def __post_init__(self):
        if self.tau_loc <= 0 or self.tau_m <= 0:
            raise ValueError("thresholds must be positive")
        if self.seed_k < 1:
            raise ValueError("seed_k must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass
class MatchCounter:
    """Accumulator for descriptor comparisons (the CPU-time proxy)."""

    ops: int = 0

    def add(self, n: int) -> None:
        self.ops += int(n)


@dataclass(frozen=True)
class MatchPair:
    left: NodeId
    right: NodeId
    distance: float


@dataclass(frozen=True)
class MatchSet:
    """One-to-one pairing between two divergent patches' nodes."""

    pairs: frozenset[MatchPair] = frozenset()

    def __len__(self) -> int:
        return len(self.pairs)


def descriptor_distances(matrix: np.ndarray, descriptor) -> np.ndarray:
    """Euclidean distance from ``descriptor`` to every row of ``matrix``.

    Each distance depends only on its own row, so it has the same bits
    whether computed against the whole map or against a few of its nodes.
    """
    if not len(matrix):  # an empty map's matrix has no columns either
        return np.empty(0)
    q = np.asarray(descriptor, dtype=np.float64)
    return np.sqrt(np.sum((matrix - q) ** 2, axis=1))


def _nearest(index: DescriptorIndex, dists: np.ndarray, k: int,
             counter: MatchCounter | None) -> list[NodeId]:
    """The k ids of ``index`` nearest by ``dists`` (one per row), ties by id.

    ``np.partition`` finds the k-th smallest distance; only the rows no
    farther than it are ranked by (distance, id).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = index.ids
    if not ids:
        return []
    if counter is not None:
        counter.add(len(ids))
    if k < len(ids):
        near = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    else:
        near = np.arange(len(ids))
    ranked = sorted(zip(dists[near].tolist(), [ids[i] for i in near]))
    return [nid for _, nid in ranked[:k]]


def appearance_seed(graph: Graph, descriptor, k: int,
                    counter: MatchCounter | None = None) -> list[NodeId]:
    """The k nearest nodes by descriptor distance, ties by node id."""
    index = graph.descriptor_index()
    return _nearest(index, descriptor_distances(index.matrix, descriptor), k, counter)


def localise(graph: Graph, obs: Observation, cfg: LocaliserConfig,
             counter: MatchCounter | None = None):
    """Find a map node explaining the observation, or None.

    Seeds come from appearance space; candidates are the union of their
    graph neighbourhoods; the best candidate within tau_loc wins, ties to
    the smallest id. Every distance, for seeds and candidates alike, is
    read from one row computed against the graph's descriptor index. The
    caller is responsible for bumping the matched node's path_memory.
    """
    index = graph.descriptor_index()
    dists = descriptor_distances(index.matrix, obs.descriptor)
    seeds = _nearest(index, dists, cfg.seed_k, counter)
    if not seeds:
        return None
    candidates: set[NodeId] = set()
    for s in seeds:
        candidates |= neighbourhood(graph, s, cfg.depth)
    if counter is not None:
        counter.add(len(candidates))
    rows = index.rows
    best = min(candidates, key=lambda c: (dists[rows[c]], c))
    if dists[rows[best]] <= cfg.tau_loc:
        return best
    return None


def match_patches(left: Patch | Inserts, right: Patch | Inserts, cfg: LocaliserConfig,
                  counter: MatchCounter | None = None) -> MatchSet:
    """Greedy one-to-one matching between two insert-only divergent patches
    (or the ``Inserts`` of a ``diff``); only their inserted nodes are read.

    All cross pairs are ranked by ascending descriptor distance and accepted
    while within tau_m and both endpoints are unmatched. Ties are broken by
    the unordered id pair, which makes the result independent of which side
    calls itself "left".
    """
    lnodes = sorted(left.insert_nodes.values(), key=lambda n: n.id)
    rnodes = sorted(right.insert_nodes.values(), key=lambda n: n.id)
    if not lnodes or not rnodes:
        return MatchSet()
    lm = np.array([n.descriptor for n in lnodes], dtype=np.float64)
    rm = np.array([n.descriptor for n in rnodes], dtype=np.float64)
    d2 = np.sum(lm * lm, axis=1)[:, None] + np.sum(rm * rm, axis=1)[None, :] - 2.0 * (lm @ rm.T)
    dists = np.sqrt(np.maximum(d2, 0.0))
    if counter is not None:
        counter.add(dists.size)
    within = np.argwhere(dists <= cfg.tau_m)
    ranked = sorted(
        ((float(dists[i, j]), *sorted((lnodes[i].id, rnodes[j].id)), i, j) for i, j in within),
        key=lambda t: t[:3],
    )
    used_l: set[int] = set()
    used_r: set[int] = set()
    pairs = []
    for dist, _, _, i, j in ranked:
        if i in used_l or j in used_r:
            continue
        used_l.add(i)
        used_r.add(j)
        pairs.append(MatchPair(lnodes[i].id, rnodes[j].id, dist))
    return MatchSet(frozenset(pairs))
