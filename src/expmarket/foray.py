"""Turning forays into patches.

A foray walks a route, attempting to localise each observation against the
map as it stood when the foray began. Whatever the map cannot explain
becomes a chain of freshly inserted nodes; blind-travel distances between
successful localisations are the drop-outs that robustness is measured by.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph import Edge, Graph, Node, Observation
from .ids import NodeId, NodeIdGenerator, RobotId
from .localiser import LocaliserConfig, MatchCounter, localise_batch
from .patches import Patch, build_patch
from .pose import Pose

# (inlier_count, fabmap_score) for the node minted from observation index m
MetadataFn = Callable[[int], tuple[int, float]]


def _default_metadata(_: int) -> tuple[int, float]:
    return 0, 0.0


def explain_observations(base: Graph, observations: Sequence[Observation],
                         cfg: LocaliserConfig,
                         counter: MatchCounter | None = None) -> list[NodeId | None]:
    """Per-observation localisation outcome against a fixed base map: the
    matched node or None, all observations in one ``localise_batch``."""
    return localise_batch(base, observations, cfg, counter)


def record_foray_patch(base: Graph, observations: Sequence[Observation],
                       creator: RobotId, foray: int, cfg: LocaliserConfig,
                       ids: NodeIdGenerator,
                       metadata: MetadataFn = _default_metadata,
                       counter: MatchCounter | None = None,
                       _explained: Sequence[NodeId | None] | None = None) -> Patch:
    """One inserted node per observation the base map cannot explain.

    Consecutive new nodes are chained by edges whose pose translation is the
    ground-truth spacing between their observations, keeping each foray one
    connected strand. ``_explained`` lets run_foray pass its own localisation
    pass through instead of paying for a second one.
    """
    if not observations:
        raise ValueError("a foray needs at least one observation")
    explained = _explained if _explained is not None \
        else explain_observations(base, observations, cfg, counter)
    nodes: list[Node] = []
    edges: list[Edge] = []
    prev: tuple[int, Node] | None = None
    for m, (obs, hit) in enumerate(zip(observations, explained)):
        if hit is not None:
            continue
        inliers, fabmap = metadata(m)
        node = Node(
            id=ids.next_id(),
            descriptor=tuple(obs.descriptor),
            inlier_count=inliers,
            fabmap_score=fabmap,
            product=obs.product,
            creator=creator,
            foray=foray,
        )
        if prev is not None:
            pm, pnode = prev
            dx = obs.true_position - observations[pm].true_position
            edges.append(Edge(pnode.id, node.id, Pose.from_translation(dx)))
        nodes.append(node)
        prev = (m, node)
    return build_patch(base, insert_nodes=nodes, insert_edges=edges)
