"""Canonical binary encoding: round trips and bit-stability."""

import hashlib
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expmarket.graph import Edge, Graph, Node, node_record
from expmarket.patches import (
    Patch,
    apply_patch,
    build_patch,
    patches_equal,
)
from expmarket.pose import Pose
from expmarket.serialize import (
    graph_from_bytes,
    graph_to_bytes,
    patch_from_bytes,
    patch_to_bytes,
    patch_wire_size,
)

from _builders import random_graph, random_insert_patch


def test_graph_round_trip_preserves_digest():
    for seed in range(10):
        g = random_graph(seed, 10, edge_prob=0.3)
        data = graph_to_bytes(g)
        back = graph_from_bytes(data)
        assert back.digest() == g.digest()
        assert len(back) == len(g)
        assert back.edge_count() == g.edge_count()


def test_graph_bytes_are_content_deterministic():
    g = random_graph(3, 8)
    # rebuilding through a round trip re-inserts in serialized order;
    # the bytes must not depend on insertion history
    assert graph_to_bytes(graph_from_bytes(graph_to_bytes(g))) == graph_to_bytes(g)


def test_patch_round_trip():
    base = random_graph(4, 6)
    patch = random_insert_patch(base, 11, 4)
    back = patch_from_bytes(patch_to_bytes(patch))
    assert patches_equal(back, patch)
    assert back.input_state == patch.input_state
    assert back.output_state == patch.output_state
    # the decoded patch still applies
    assert apply_patch(base, back).digest() == patch.output_state


def test_patch_round_trip_with_deletes():
    base = random_graph(5, 6, edge_prob=0.4)
    victims = sorted(base.node_ids())[:2]
    patch = build_patch(base, delete_ids=victims)
    back = patch_from_bytes(patch_to_bytes(patch))
    assert patches_equal(back, patch)
    assert apply_patch(base, back).digest() == patch.output_state


def test_wire_size_counts_whole_encoding():
    base = Graph()
    patch = build_patch(base)
    assert patch_wire_size(patch) == len(patch_to_bytes(patch))


def test_magic_checked():
    with pytest.raises(ValueError):
        graph_from_bytes(b"nope" + b"\x00" * 16)
    with pytest.raises(ValueError):
        patch_from_bytes(b"nope" + b"\x00" * 80)


_ids = st.integers(0, 2**128 - 1)
_floats = st.floats(allow_nan=False, width=64)
_nodes = st.builds(Node, id=_ids, descriptor=st.lists(_floats, max_size=6).map(tuple),
                   inlier_count=st.integers(-2**63, 2**63 - 1),
                   fabmap_score=_floats, path_memory=st.integers(0, 2**63 - 1),
                   product=st.integers(-2**31, 2**31 - 1),
                   creator=st.integers(0, 2**31 - 1), foray=st.integers(0, 2**31 - 1))
_poses = st.builds(Pose, *([_floats] * 7))
_edges = st.builds(Edge, _ids, _ids, _poses)


_states = st.binary(min_size=32, max_size=32)


@st.composite
def _patches(draw) -> Patch:
    """Flat patches whose edges start at one of the patch's nodes (so the
    codec groups them into an element) or at some other id (so they travel
    loose); at most one edge per (src, dst) in each set, as in a graph."""
    nodes = draw(st.lists(_nodes, max_size=5, unique_by=lambda n: n.id))
    inserted = [draw(st.booleans()) for _ in nodes]
    srcs = st.sampled_from([n.id for n in nodes]) | _ids if nodes else _ids
    edges = st.lists(st.builds(Edge, srcs, _ids, _poses), max_size=6,
                     unique_by=lambda e: (e.src, e.dst)).map(frozenset)
    return Patch(draw(_states), draw(_states),
                 {n.id: n for n, ins in zip(nodes, inserted) if ins},
                 {n.id: n for n, ins in zip(nodes, inserted) if not ins},
                 draw(edges), draw(edges))


@settings(max_examples=200, deadline=None)
@given(_patches())
def test_wire_size_equals_encoded_length(patch):
    assert patch_wire_size(patch) == len(patch_to_bytes(patch))


@settings(max_examples=200, deadline=None)
@given(_patches())
def test_flat_patch_round_trips_field_by_field(patch):
    data = patch_to_bytes(patch)
    back = patch_from_bytes(data)
    assert (back.input_state, back.output_state) == (patch.input_state, patch.output_state)
    assert back.insert_nodes == patch.insert_nodes
    assert back.delete_nodes == patch.delete_nodes
    assert back.insert_edges == patch.insert_edges
    assert back.delete_edges == patch.delete_edges
    assert patch_to_bytes(back) == data


def _element_encoding(*elements: tuple[int, Node, list[Edge]]) -> bytes:
    """A patch encoding with the given (action byte, node, out-edges)
    elements and no loose edges, written field by field."""
    count = struct.Struct("<Q").pack
    out = [b"EMP1", b"\x00" * 64, count(len(elements))]
    for action, node, edges in elements:
        out += [bytes([action]), node_record(node), count(len(edges)),
                *(e.content_bytes() for e in edges)]
    return b"".join(out + [count(0), count(0)])


def test_decoder_rejects_unknown_action_byte():
    node = Node(1, (1.0,))
    patch_from_bytes(_element_encoding((1, node, [])))  # the well-formed twin
    with pytest.raises(ValueError, match="action"):
        patch_from_bytes(_element_encoding((2, node, [])))


def test_decoder_rejects_one_id_in_two_elements():
    node = Node(1, (1.0,))
    for actions in ((1, 0), (0, 0), (1, 1)):
        with pytest.raises(ValueError, match="two elements"):
            patch_from_bytes(_element_encoding(*((a, node, []) for a in actions)))


def test_decoder_rejects_payload_edge_from_another_node():
    node = Node(1, (1.0,))
    own, foreign = Edge(1, 2, Pose.identity()), Edge(3, 2, Pose.identity())
    assert patch_from_bytes(_element_encoding((1, node, [own]))).insert_edges == {own}
    with pytest.raises(ValueError, match="payload edge"):
        patch_from_bytes(_element_encoding((1, node, [foreign])))


def test_wire_size_of_built_patches():
    base = random_graph(6, 8, edge_prob=0.4)
    grown = random_insert_patch(base, 12, 5)
    shrunk = build_patch(base, delete_ids=sorted(base.node_ids())[:3])
    for patch in (grown, shrunk):
        assert patch_wire_size(patch) == len(patch_to_bytes(patch))


@settings(max_examples=50, deadline=None)
@given(junk=st.binary(min_size=1, max_size=40))
def test_trailing_bytes_rejected(junk):
    g = random_graph(2, 5)
    with pytest.raises(ValueError):
        graph_from_bytes(graph_to_bytes(g) + junk)
    patch = random_insert_patch(g, 3, 2)
    with pytest.raises(ValueError):
        patch_from_bytes(patch_to_bytes(patch) + junk)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 8))
def test_every_proper_prefix_of_a_graph_encoding_is_rejected(seed, size):
    data = graph_to_bytes(random_graph(seed % 1000, size, dim=3, edge_prob=0.3))
    for end in range(len(data)):
        with pytest.raises(ValueError):
            graph_from_bytes(data[:end])


@settings(max_examples=60, deadline=None)
@given(_patches())
def test_every_proper_prefix_of_a_patch_encoding_is_rejected(patch):
    data = patch_to_bytes(patch)
    for end in range(len(data)):
        with pytest.raises(ValueError):
            patch_from_bytes(data[:end])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12))
def test_patches_with_node_and_edge_deletes_round_trip(seed, size):
    rng = random.Random(seed)
    base = random_graph(seed % 1000, size, dim=3, edge_prob=0.4)
    victims = rng.sample(sorted(base.node_ids()), rng.randrange(size + 1))
    cut = [e for e in base.edges()
           if e.src not in victims and e.dst not in victims and rng.random() < 0.5]
    patch = build_patch(base, delete_ids=victims, delete_edges=cut)
    back = patch_from_bytes(patch_to_bytes(patch))
    assert patches_equal(back, patch)
    assert (back.input_state, back.output_state) == (patch.input_state, patch.output_state)
    assert patch_to_bytes(back) == patch_to_bytes(patch)
    assert apply_patch(base, back).digest() == patch.output_state


def _pinned_encodings() -> dict[str, bytes]:
    """Fixed graphs and patches (inserts, node and edge deletes; dim 3 and 16)."""
    out = {}
    for dim in (3, 16):
        base = random_graph(7, 9, dim=dim, edge_prob=0.4)
        victims = sorted(base.node_ids())[:2]
        cut = sorted((e for e in base.edges() if e.src not in victims and e.dst not in victims),
                     key=lambda e: (e.src, e.dst))[:2]
        out[f"graph{dim}"] = graph_to_bytes(base)
        out[f"grow{dim}"] = patch_to_bytes(random_insert_patch(base, 8, 4, dim=dim))
        out[f"shrink{dim}"] = patch_to_bytes(build_patch(base, delete_ids=victims,
                                                         delete_edges=cut))
    return out


# SHA-256 of each encoding above, as the codec wrote it when these were pinned
_PINNED = {
    "graph3": "43c2fd052811cb4a919238158ef7f66c1dc68033ca771ba552e11b3df3d56a60",
    "grow3": "03e2b74895015f40a677478e4dcf89c29bc32671b268b49222809d62dd955b62",
    "shrink3": "7575956b8582295b5ccf7385257ae505d6151aefa5e4afc109afe5d22a7daa51",
    "graph16": "b1066c899745767ea16ae4a7d689938e9a99000f6a729713b000d23f31bd2d03",
    "grow16": "47ca4bb3d1cea91076a05b1eeccd488fb27a3dba96ef6e4f2dc5af588670852f",
    "shrink16": "5db47951384195911638f3fb32301d55b5642443de9088e3c1c4940dc94fe06b",
}


def test_codec_bytes_are_pinned():
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in _pinned_encodings().items()}
    assert got == _PINNED


def test_node_content_bytes_are_the_wire_record_without_path_memory():
    for dim in (0, 3, 16):
        for node in random_graph(11, 4, dim=dim).nodes():
            g = Graph()
            g.insert_node(node)
            record = graph_to_bytes(g)[12:-8]  # magic, node count / edge count
            cut = 16 + 4 + 8 * dim + 8 + 8  # id, dim, descriptor, inliers, fabmap
            assert record[:cut] + record[cut + 8:] == node.content_bytes()
            assert record[cut:cut + 8] == node.path_memory.to_bytes(8, "little")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_pinned_encodings().items())), st.data())
def test_flipped_bytes_decode_or_raise_value_error(case, data):
    name, encoded = case
    decode = graph_from_bytes if name.startswith("graph") else patch_from_bytes
    buf = bytearray(encoded)
    positions = data.draw(st.lists(st.integers(0, len(buf) - 1), min_size=1, max_size=3,
                                   unique=True))
    for pos in positions:
        buf[pos] ^= data.draw(st.integers(1, 255))
    try:
        decode(bytes(buf))
    except ValueError:
        pass


def test_huge_descriptor_length_fails_without_allocating():
    g = Graph()
    g.insert_node(Node(1, (1.0, 2.0)))
    data = bytearray(graph_to_bytes(g))
    data[12 + 16:12 + 20] = (2**32 - 1).to_bytes(4, "little")  # the node's dim
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            graph_from_bytes(bytes(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
