"""Turning forays into patches.

A foray walks a route, and ``sim.run_foray`` localises each observation
against the map as it stood when the foray began, all of them in one
``localiser.localise_batch``. ``record_foray_patch`` turns whatever the map
could not explain into a chain of freshly inserted nodes; blind-travel
distances between successful localisations are the drop-outs that
robustness is measured by.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graph import Edge, Graph, Node, Observation
from .ids import NodeId, NodeIdGenerator, RobotId
from .patches import Patch, build_patch
from .pose import Pose

# (inlier_count, fabmap_score) for the node minted from observation index m
MetadataFn = Callable[[int], tuple[int, float]]


def _default_metadata(_: int) -> tuple[int, float]:
    return 0, 0.0


def record_foray_patch(base: Graph, observations: Sequence[Observation],
                       explained: Sequence[NodeId | None], creator: RobotId,
                       foray: int, ids: NodeIdGenerator,
                       metadata: MetadataFn = _default_metadata) -> Patch:
    """One inserted node per observation the base map cannot explain.

    ``explained`` holds each observation's localisation outcome against
    ``base``: the matched node, or None. Consecutive new nodes are chained by
    edges whose pose translation is the ground-truth spacing between their
    observations, keeping each foray one connected strand.
    """
    if not observations:
        raise ValueError("a foray needs at least one observation")
    nodes: list[Node] = []
    edges: list[Edge] = []
    prev: tuple[int, Node] | None = None
    for m, (obs, hit) in enumerate(zip(observations, explained, strict=True)):
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
