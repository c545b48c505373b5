"""Recording forays as patches."""

import pytest

from expmarket.catalogue import bundled_catalogue, product_of
from expmarket.foray import record_foray_patch
from expmarket.graph import Graph, Observation
from expmarket.ids import NodeIdGenerator
from expmarket.localiser import LocaliserConfig, localise_batch
from expmarket.patches import apply_patch

from _builders import mknode


def obs_at(position, descriptor, product=0):
    return Observation(descriptor=tuple(descriptor), true_position=position,
                       product=product)


def record(base, observations, cfg, **kwargs):
    """The foray's patch, localised against ``base`` as ``run_foray`` does."""
    explained = localise_batch(base, observations, cfg)
    return record_foray_patch(base, observations, explained, **kwargs)


def test_unexplained_world_three_inserts_two_chain_edges():
    ids = NodeIdGenerator(0, 0)
    observations = [obs_at(0.0, [0.0, 0.0]), obs_at(5.0, [5.0, 0.0]),
                    obs_at(10.0, [10.0, 0.0])]
    patch = record(Graph(), observations, creator=0, foray=1,
                   cfg=LocaliserConfig(), ids=ids)
    assert len(patch.insert_nodes) == 3
    edges = sorted(patch.insert_edges, key=lambda e: e.pose.tx)
    assert len(edges) == 2
    assert all(e.pose.tx == 5.0 for e in edges)


def test_fully_explained_base_gives_empty_patch():
    ids = NodeIdGenerator(0, 0)
    base = Graph()
    for i in range(3):
        base.insert_node(mknode(ids, [float(5 * i), 0.0]))
    observations = [obs_at(5.0 * i, [5.0 * i, 0.0]) for i in range(3)]
    patch = record(base, observations, creator=0, foray=1,
                   cfg=LocaliserConfig(tau_loc=0.5), ids=ids)
    assert patch.is_empty()


def test_partially_explained_inserts_only_failures():
    ids = NodeIdGenerator(0, 0)
    base = Graph()
    base.insert_node(mknode(ids, [5.0, 0.0]))  # explains observation 2 of 3
    observations = [obs_at(0.0, [0.0, 0.0]), obs_at(5.0, [5.0, 0.0]),
                    obs_at(10.0, [10.0, 0.0])]
    cfg = LocaliserConfig(tau_loc=0.5)
    explained = localise_batch(base, observations, cfg)
    assert [e is not None for e in explained] == [False, True, False]
    patch = record_foray_patch(base, observations, explained, creator=0, foray=1,
                               ids=ids)
    inserted = sorted(n.descriptor[0] for n in patch.insert_nodes.values())
    assert inserted == [0.0, 10.0]
    # the two new nodes bridge the explained gap with the true 10 m spacing
    (edge,) = patch.insert_edges
    assert edge.pose.tx == 10.0


def test_nodes_carry_product_labels_from_policy():
    ids = NodeIdGenerator(0, 0)
    cat = bundled_catalogue("parks")
    positions = [10.0, 90.0, 170.0]
    observations = [obs_at(p, [p, p], product=product_of(p, cat)) for p in positions]
    patch = record(Graph(), observations, creator=3, foray=2,
                   cfg=LocaliserConfig(), ids=ids)
    by_pos = {n.descriptor[0]: n for n in patch.insert_nodes.values()}
    for p in positions:
        assert by_pos[p].product == product_of(p, cat)
        assert by_pos[p].creator == 3
        assert by_pos[p].foray == 2


def test_metadata_hook_sets_quality_fields():
    ids = NodeIdGenerator(0, 0)
    observations = [obs_at(0.0, [0.0]), obs_at(5.0, [9.0])]
    patch = record(Graph(), observations, creator=0, foray=1,
                   cfg=LocaliserConfig(), ids=ids,
                   metadata=lambda m: (10 * (m + 1), 0.25 * (m + 1)))
    got = sorted((n.inlier_count, n.fabmap_score) for n in patch.insert_nodes.values())
    assert got == [(10, 0.25), (20, 0.5)]


def test_patch_applies_onto_base():
    ids = NodeIdGenerator(0, 0)
    base = Graph()
    base.insert_node(mknode(ids, [99.0, 99.0]))
    observations = [obs_at(0.0, [0.0, 0.0]), obs_at(5.0, [5.0, 0.0])]
    patch = record(base, observations, creator=0, foray=1,
                   cfg=LocaliserConfig(), ids=ids)
    out = apply_patch(base, patch)
    assert len(out) == 3


def test_empty_observation_sequence_rejected():
    with pytest.raises(ValueError):
        record_foray_patch(Graph(), [], [], creator=0, foray=1,
                           ids=NodeIdGenerator(0, 0))
