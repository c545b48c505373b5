"""Synthetic localiser: appearance seeding, localisation, cross-patch matching.

Stands in for the visual pipeline: a match is a descriptor within threshold,
found by expanding graph neighbourhoods around appearance-space seeds.
A foray's observations are localised in one batch: one matrix product
estimates every (observation, node) squared distance, and exact distances
are computed only for the rows whose estimate is close enough to the
k-th smallest to make them seeds. The estimate's error is bounded far
below that margin, so the seeds and the matches are those an exact
distance to every node gives. Every descriptor comparison the pipeline
stands for is counted through the caller's MatchCounter, the
deterministic stand-in for CPU time: each observation against every node,
then against every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
        if not (math.isfinite(self.tau_loc) and math.isfinite(self.tau_m)):
            raise ValueError("thresholds must be finite")
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


def descriptor_distances(matrix: np.ndarray, descriptors) -> np.ndarray:
    """Euclidean distance from each row of ``matrix`` to ``descriptors``:
    one descriptor for every row, or one per row.

    Each distance depends only on its own row and descriptor, so it has the
    same bits whether computed against the whole map, against a few of its
    nodes or among rows gathered for a batch of observations.
    """
    if not len(matrix):  # an empty map's matrix has no columns either
        return np.empty(0)
    q = np.asarray(descriptors, dtype=np.float64)
    return np.sqrt(np.sum((matrix - q) ** 2, axis=1))


def _seed_batch(index: DescriptorIndex, queries: np.ndarray, k: int,
                counter: MatchCounter | None) -> list[list[tuple[float, NodeId]]]:
    """For each row of ``queries``, the k nodes of ``index`` nearest by
    ``descriptor_distances`` as ranked (distance, id) pairs, ties by id.

    One matrix product estimates every squared distance as
    ``|m|² - 2·m·q + |q|²``. Only the rows whose estimate is within
    ``margin`` of the query's k-th smallest estimate get an exact distance,
    and the seeds are ranked among them.

    Why this is exact: with u = 2⁻⁵³, d the dimension and S = |m|² + |q|²,
    the estimate and the exact formula's sum of squares s each lie within
    (2d + 6)·u·S of the true squared distance (a sum of d products in any
    order errs by at most d·u·Σ|xᵢyᵢ|, and |m·q| ≤ S/2), so they differ by
    at most δ = (4d + 12)·u·S. The k rows with the smallest estimates have
    s within δ of them, so the k-th smallest s is at most the k-th estimate
    plus δ. A row no farther than the k-th exact distance has s at most
    that k-th s times (1 + 5u), the most ``sqrt`` can round two values to
    one. Its estimate is therefore within 2δ + 10u·S = (8d + 34)·u·S of the
    k-th estimate. ``margin`` is over 10⁵ times that bound at the largest
    S, max|m|² + |q|² (the ``+ 1`` covers underflow), so every row that
    can be a seed gets its exact distance, whose bits do not depend on
    which other rows are computed.
    This holds for descriptors whose squared norms do not overflow.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids, matrix = index.ids, index.matrix
    if not ids:
        return [[] for _ in queries]
    if counter is not None:
        counter.add(len(ids) * len(queries))
    kth = min(k, len(ids)) - 1
    norms = np.einsum("ij,ij->i", matrix, matrix)
    qnorms = np.einsum("ij,ij->i", queries, queries)
    est = norms - 2.0 * (queries @ matrix.T) + qnorms[:, None]
    margin = (matrix.shape[1] + 4) * 2.0 ** -32 * (norms.max() + qnorms + 1.0)
    bound = np.partition(est, kth, axis=1)[:, kth] + margin
    qi, rows = np.nonzero(est <= bound[:, None])  # grouped by query
    dists = descriptor_distances(matrix[rows], queries[qi]).tolist()
    near = [ids[r] for r in rows.tolist()]
    cuts = np.searchsorted(qi, np.arange(len(queries) + 1)).tolist()
    return [sorted(zip(dists[lo:hi], near[lo:hi]))[:k] for lo, hi in zip(cuts, cuts[1:])]


def localise_batch(graph: Graph, observations: Sequence[Observation],
                   cfg: LocaliserConfig,
                   counter: MatchCounter | None = None) -> list[NodeId | None]:
    """The map node explaining each observation, or None for it.

    Seeds come from appearance space (``_seed_batch``); candidates are the
    union of their graph neighbourhoods; the best candidate within tau_loc
    wins, ties to the smallest id. The best candidate is always the first
    seed: the seeds are the nearest nodes of the whole map, and each seed
    lies in its own neighbourhood. So the neighbourhoods only size the
    comparisons counted, and are expanded only when a counter is given.
    Each observation counts one comparison per map node and one per
    candidate. The caller is responsible for bumping the matched nodes'
    path_memory.
    """
    index = graph.descriptor_index()
    if not observations or not index.ids:
        return [None] * len(observations)
    queries = np.array([o.descriptor for o in observations], dtype=np.float64)
    ranked = _seed_batch(index, queries, cfg.seed_k, counter)
    if counter is not None:
        for seeds in ranked:
            counter.add(len(neighbourhood(graph, [s for _, s in seeds], cfg.depth)))
    return [best if dist <= cfg.tau_loc else None for (dist, best), *_ in ranked]


def localise(graph: Graph, obs: Observation, cfg: LocaliserConfig,
             counter: MatchCounter | None = None) -> NodeId | None:
    """``localise_batch`` of one observation."""
    return localise_batch(graph, [obs], cfg, counter)[0]


def match_patches(left: Patch | Inserts, right: Patch | Inserts, cfg: LocaliserConfig,
                  counter: MatchCounter | None = None) -> MatchSet:
    """Greedy one-to-one matching between two insert-only divergent patches
    (or the ``Inserts`` of a ``diff``); only their inserted nodes are read.

    All cross pairs are ranked by ascending descriptor distance and accepted
    while within tau_m and both endpoints are unmatched. Ties are broken by
    the unordered id pair, which makes the result independent of which side
    calls itself "left". The pairs within tau_m are read out of numpy at
    once (``np.nonzero``), as plain floats and indices.
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
    li, ri = np.nonzero(dists <= cfg.tau_m)
    lids, rids = [n.id for n in lnodes], [n.id for n in rnodes]
    # ranked by (distance, lower id, higher id), then in numpy's row-major order
    ranked = sorted((d, *sorted((lids[i], rids[j])), i, j)
                    for d, i, j in zip(dists[li, ri].tolist(), li.tolist(), ri.tolist()))
    used_l: set[int] = set()
    used_r: set[int] = set()
    pairs = []
    for dist, _, _, i, j in ranked:
        if i in used_l or j in used_r:
            continue
        used_l.add(i)
        used_r.add(j)
        pairs.append(MatchPair(lids[i], rids[j], dist))
    return MatchSet(frozenset(pairs))
