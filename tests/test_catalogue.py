"""Catalogue: products, shopping lists, ledgers, advisories, file format."""

import math
import time

import pytest

from expmarket.catalogue import (
    Advisory,
    Catalogue,
    OutOfWorld,
    ProductLedger,
    Section,
    ShoppingKind,
    ShoppingStrategy,
    advise,
    bundled_catalogue,
    parse_catalogue,
    product_of,
    shopping_list,
)
from expmarket.graph import Graph
from expmarket.ids import NodeIdGenerator
from expmarket.market import Belief
from expmarket.patches import build_patch

from _builders import mknode
from _oracles import catalogue_to_text


def toy_catalogue(n=9, metres=100.0, cyclic=False):
    return Catalogue(tuple(Section(f"S{i}", "street", 3, metres) for i in range(n)),
                     cyclic=cyclic)


# -- product_of ---------------------------------------------------------------


def test_product_at_origin():
    assert product_of(0.0, toy_catalogue()) == 0


def test_product_past_first_boundary():
    cat = Catalogue((Section("A", "street", 2, 143.0),
                     Section("B", "street", 2, 180.0)))
    # cumulative-length oracle
    bounds = [0.0, 143.0, 323.0]
    for pos in (0.0, 142.9, 143.0, 200.0, 322.9):
        expected = next(i for i in range(2) if pos < bounds[i + 1])
        assert product_of(pos, cat) == expected


def test_product_deterministic():
    cat = toy_catalogue()
    assert product_of(larger := 456.0, cat) == product_of(larger, cat)


def test_product_out_of_world():
    cat = toy_catalogue(n=2)
    with pytest.raises(OutOfWorld):
        product_of(200.0, cat)
    with pytest.raises(OutOfWorld):
        product_of(-1.0, cat)


def _linear_product_of(position, catalogue):
    """The section lookup as a walk over the boundaries, with its refusals."""
    if position < 0:
        raise OutOfWorld(f"position {position} is negative")
    bounds = catalogue.boundaries()
    if position >= bounds[-1]:
        raise OutOfWorld(f"position {position} beyond world end {bounds[-1]}")
    for i in range(len(catalogue)):
        if position < bounds[i + 1]:
            return i
    raise OutOfWorld(position)


def _outcome(lookup, position, catalogue):
    try:
        return lookup(position, catalogue)
    except OutOfWorld as err:
        return f"OutOfWorld: {err}"


@pytest.mark.parametrize("cat", [
    toy_catalogue(),
    Catalogue(tuple(Section(f"S{i}", "street", 1, m)
                    for i, m in enumerate([0.1, 0.2, 0.7, 143.3, 1e-9, 33.3, 5.0]))),
    bundled_catalogue("table1"),
    bundled_catalogue("parks"),
], ids=["toy", "inexact-sums", "table1", "parks"])
def test_product_bisect_matches_the_linear_walk_at_every_boundary(cat):
    """At each boundary, its neighbouring floats, the end and beyond, and
    for NaN and the infinities: the same section or the same refusal."""
    probes = [math.nan, math.inf, -math.inf, -0.0, -1.0, -5e-324]
    for b in cat.boundaries():
        probes += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf),
                   math.nextafter(math.nextafter(b, math.inf), math.inf)]
    for pos in probes:
        want = _outcome(_linear_product_of, pos, cat)
        assert _outcome(product_of, pos, cat) == want, pos
    end = cat.boundaries()[-1]
    for bad in (math.nan, -1.0, end, math.nextafter(end, math.inf)):
        with pytest.raises(OutOfWorld):
            product_of(bad, cat)


# -- shopping lists -------------------------------------------------------------


def test_window_mid_catalogue():
    got = shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 1), 3, toy_catalogue())
    assert got == {2, 3, 4}


def test_window_clamped_at_edge():
    got = shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 1), 0, toy_catalogue())
    assert got == {0, 1}


def test_window_wraps_when_cyclic():
    got = shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 1), 0,
                        toy_catalogue(cyclic=True))
    assert got == {8, 0, 1}


@pytest.mark.parametrize("name", ["parks", "table1"])
def test_huge_window_radius_is_fast_and_covers_the_catalogue(name):
    cat = bundled_catalogue(name)
    n = len(cat)
    t0 = time.perf_counter()
    huge = [shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 10**7), start, cat)
            for start in range(n)]
    assert time.perf_counter() - t0 < 0.1  # unclamped, one call took over a second
    for start in range(n):
        assert huge[start] == shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, n), start, cat)
        assert huge[start] == set(range(n))


def test_current_single_product():
    got = shopping_list(ShoppingStrategy(ShoppingKind.CURRENT), 5, toy_catalogue())
    assert got == {5}


def test_recommend_contains_window():
    cat = toy_catalogue()
    advisories = {
        0: Advisory(favourite_sellers={3: 1}, advertisement=None),
        1: Advisory(favourite_sellers={3: 1}, advertisement=7),
    }
    window = shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 1), 3, cat)
    rec = shopping_list(ShoppingStrategy(ShoppingKind.RECOMMEND, 1), 3, cat,
                        advisories, buyer=0)
    assert window <= rec
    assert 7 in rec  # seller 1's advertised best-seller joins the list


def test_recommend_without_advisories_equals_window():
    cat = toy_catalogue()
    rec = shopping_list(ShoppingStrategy(ShoppingKind.RECOMMEND, 2), 4, cat, {})
    window = shopping_list(ShoppingStrategy(ShoppingKind.WINDOW, 2), 4, cat)
    assert rec == window


# -- ledgers --------------------------------------------------------------------


def _patch_products(products, seed=0):
    gen = NodeIdGenerator(seed, 0)
    nodes = [mknode(gen, [float(i)], product=p) for i, p in enumerate(products)]
    return build_patch(Graph(), insert_nodes=nodes), nodes


def test_bought_grows_purchases():
    ledger = ProductLedger()
    patch, nodes = _patch_products([2, 2, 5])
    ledger.bought(patch)
    assert ledger.purchases[2] == {nodes[0].id, nodes[1].id}
    assert ledger.purchases[5] == {nodes[2].id}


def test_sold_excludes_previously_purchased():
    ledger = ProductLedger()
    bought, bnodes = _patch_products([1], seed=1)
    ledger.bought(bought)
    resale, rnodes = _patch_products([1, 1], seed=2)
    mixed = build_patch(Graph(), insert_nodes=[bnodes[0]] + list(rnodes))
    ledger.sold(mixed)
    assert bnodes[0].id not in ledger.sales.get(1, set())
    assert {n.id for n in rnodes} <= ledger.sales[1]


def test_empty_patch_leaves_ledger_alone():
    ledger = ProductLedger()
    empty = build_patch(Graph())
    ledger.bought(empty)
    ledger.sold(empty)
    assert not ledger.purchases and not ledger.sales


def test_advertise_argmax_and_ties():
    ledger = ProductLedger()
    patch, nodes = _patch_products([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
    ledger.sold(patch)
    assert ledger.advertise() == 1

    tie = ProductLedger()
    tpatch, _ = _patch_products([0, 0, 0, 0, 2, 2, 2, 2], seed=5)
    tie.sold(tpatch)
    assert tie.advertise() == 0


def test_advertise_none_without_sales():
    assert ProductLedger().advertise() is None


def test_advise_argmax_ties_and_uninitialized():
    beliefs = {4: {1: Belief(1, count=2, mean=2.0), 2: Belief(2, count=2, mean=5.0)}}
    assert advise(beliefs, 4) == 2
    tied = {4: {1: Belief(1, count=2, mean=5.0), 2: Belief(2, count=2, mean=5.0)}}
    assert advise(tied, 4) == 1
    cold = {4: {1: Belief(1), 2: Belief(2)}}
    assert advise(cold, 4) is None
    assert advise({}, 9) is None


# -- files ----------------------------------------------------------------------


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_catalogue("A, street, 3\n")
    with pytest.raises(ValueError):
        parse_catalogue("A, street, zero, 100\n")
    with pytest.raises(ValueError):
        parse_catalogue("# only a comment\n")


def test_catalogue_text_round_trip():
    cat = toy_catalogue(n=4, cyclic=True)
    assert parse_catalogue(catalogue_to_text(cat)) == cat


def test_bundled_table1_contents():
    cat = bundled_catalogue("table1")
    rows = [(s.name, s.category, s.stock_items, s.metres) for s in cat.sections]
    assert rows == [
        ("ST-ANNES", "college", 12, 143.0),
        ("BEVINGTON", "street", 15, 180.0),
        ("RHODES", "house", 21, 260.0),
        ("TRINITY", "college", 28, 350.0),
        ("BLACKHALL", "street", 17, 210.0),
        ("OBSERVATORY", "street", 26, 322.0),
        ("ORI", "lab", 36, 450.0),
        ("BROAD", "street", 18, 440.0),
        ("MATERIALS", "street", 24, 300.0),
    ]
    assert not cat.cyclic
    assert cat.total_metres == 2655.0
