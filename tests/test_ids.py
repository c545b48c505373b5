"""Node ids: plain ints carrying version-4 UUID bits, encoded as UUID bytes."""

import hashlib
import random
import re
from dataclasses import replace
from uuid import UUID

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.graph import Edge, Graph, Node, PatchError
from expmarket.ids import NodeIdGenerator, derive_seed, id_text, seed_stream
from expmarket.patches import apply_patch, build_patch
from expmarket.pose import Pose
from expmarket.serialize import (graph_from_bytes, graph_to_bytes, patch_from_bytes,
                                 patch_to_bytes)

from _oracles import export_text

_UUID_TEXT = "12345678-1234-4678-9234-567812345678"
_NODE = Node(UUID(_UUID_TEXT).int, (1.0, 2.0), 3, 0.5, 7, 1, 2, 4)
_EDGE = Edge(_NODE.id, 1, Pose.from_translation(5.0))


def test_item_hashes_are_pinned():
    """The values UUID ids gave: an int id packs to the same 16 bytes."""
    assert _NODE.item_hash.hex() == \
        "fb6ddb1ea1787b02e283e798c001b57a540586799505fe8d626523300edb5f49"
    assert _EDGE.item_hash.hex() == \
        "5694e5ab275d82a72a1a35fcf09e99bde119a051a5b2796f607a06b68987839a"


def test_id_packs_as_uuid_bytes():
    assert _NODE.content_bytes()[:16] == UUID(_UUID_TEXT).bytes
    assert _EDGE.content_bytes()[:32] == UUID(_UUID_TEXT).bytes + UUID(int=1).bytes


@pytest.mark.parametrize("extreme", [0, 2**128 - 1])
def test_extreme_ids_round_trip_through_the_codecs(extreme):
    other = 2**127
    g = Graph()
    for nid in (extreme, other):
        g.insert_node(Node(nid, (float(nid % 7),)))
    g.insert_edge(Edge(extreme, other, Pose.from_translation(2.0)))
    back = graph_from_bytes(graph_to_bytes(g))
    assert back.node_ids() == {extreme, other}
    assert back.has_edge(extreme, other)
    assert back.digest() == g.digest()

    patch = build_patch(Graph(), insert_nodes=[Node(extreme, (1.0,)), Node(other, (2.0,))],
                        insert_edges=[Edge(other, extreme, Pose.from_translation(3.0))])
    decoded = patch_from_bytes(patch_to_bytes(patch))
    assert decoded == patch
    assert apply_patch(Graph(), decoded).node_ids() == {extreme, other}


class _FixedBits:
    """A stand-in random stream whose every draw is ``bits``."""

    def __init__(self, bits: int):
        self.bits = bits

    def getrandbits(self, k: int) -> int:
        return self.bits


def test_next_id_is_an_int_with_version_4_uuid_bits():
    gen = NodeIdGenerator(3, 1)
    for _ in range(50):
        nid = gen.next_id()
        assert type(nid) is int
        assert 0 <= nid < 2**128
        assert UUID(int=nid).version == 4
    # the same bits as uuid.UUID(version=4) sets, on all-zero and all-one draws too
    draws = random.Random(11)
    for bits in [0, 2**128 - 1] + [draws.getrandbits(128) for _ in range(200)]:
        gen._rng = _FixedBits(bits)
        assert gen.next_id() == UUID(int=bits, version=4).int


def test_item_hash_is_the_hash_of_the_content_and_ignores_path_memory():
    node = replace(_NODE)
    assert node.item_hash == hashlib.sha256(b"N" + node.content_bytes()).digest()
    assert node.item_hash is node.item_hash  # kept, not recomputed
    bumped = replace(node, path_memory=node.path_memory + 5)
    assert "item_hash" not in vars(bumped)  # computed afresh, not copied
    assert bumped.item_hash == node.item_hash
    assert _EDGE.item_hash == hashlib.sha256(b"E" + _EDGE.content_bytes()).digest()
    # the cache is not a field: eq, hash and repr are those of the fields
    fresh = replace(_NODE)
    assert fresh == node and hash(fresh) == hash(node) and repr(fresh) == repr(node)


def test_text_names_ids_as_uuids():
    assert id_text(_NODE.id) == _UUID_TEXT
    assert id_text(0) == "00000000-0000-0000-0000-000000000000"
    g = Graph()
    g.insert_node(_NODE)
    assert export_text(g).split("\t")[1] == _UUID_TEXT
    with pytest.raises(ValueError, match=_UUID_TEXT):
        g.insert_node(_NODE)
    patch = build_patch(Graph(), insert_nodes=[_NODE])
    with pytest.raises(PatchError, match=re.escape(f"insert of existing node {_UUID_TEXT}")):
        apply_patch(g, replace(patch, input_state=g.digest()))


_PART = st.one_of(st.integers(-2**64, 2**64), st.text(max_size=12),
                  st.integers(0, 2**128 - 1))


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_PART, max_size=5), lasts=st.lists(_PART, min_size=1, max_size=4))
def test_seed_stream_derives_the_same_seeds(parts, lasts):
    """A stream hashes the same bytes as ``derive_seed``, call after call."""
    stream = seed_stream(*parts)
    for last in lasts:
        assert stream(last) == derive_seed(*parts, last)
