import json
import random
import tracemalloc

import pytest

from shellab import (
    AmbiguousRootError,
    BudgetExceededError,
    EmptyIntervalError,
    EulerMismatchError,
    InvalidInputError,
    InvalidIntervalError,
    NotAShellingError,
    OrderComplex,
    brute_force_shellable,
    build_poset,
    complex_from_json,
    complex_to_json,
    descending_chains,
    homotopy_report,
    is_shelling,
    label_sequence,
    lex_order_max_chains,
    maximal_chains,
    order_complex,
    restriction_map,
)
from shellab.chains import root_trie
from shellab.shelling import _vertex_masks
from conftest import (
    _is_shelling_literal,
    brute_euler_characteristic,
    diamond_tower,
    shelling_orders_by_exhaustion,
    shuffled_boolean_lattice,
)


def test_full_complex_of_edge_poset():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    k = order_complex(p)
    assert k.facets == (frozenset({"0hat", "1hat"}),)


def test_open_interval_complex_fig4_shape(fig2):
    p = fig2.poset
    for atom in p.atoms():
        k = order_complex(p, interval=(atom, "1hat"))
        assert len(k.vertices) == 8
        assert len(k.facets) == 8  # a graph: every facet is an edge
        assert all(len(f) == 2 for f in k.facets)
        assert k.euler_characteristic() == 0
        assert k.is_connected()
        degrees = k.vertex_degrees()
        assert any(d != 2 for d in degrees.values())


def test_empty_open_interval():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    with pytest.raises(EmptyIntervalError):
        order_complex(p, interval=("0hat", "1hat"))


@pytest.mark.parametrize("interval, message", [
    (("qq", "zz"), "'qq' is not an element"),
    (("1hat", "0hat"), "'1hat' is not below '0hat'"),
])
def test_order_complex_needs_an_interval(fig8, interval, message):
    # neither a bare KeyError nor an "empty open interval"
    with pytest.raises(InvalidIntervalError, match=message):
        order_complex(fig8.poset, interval=interval)


def test_fig5q_full_complex(fig5q):
    k = order_complex(fig5q.poset)
    assert len(k.facets) == 5
    assert sorted(len(f) for f in k.facets) == [4, 4, 4, 4, 4]


def test_euler_characteristic_against_oracle(fig2):
    p = fig2.poset
    for k in (order_complex(p, interval=("a1", "1hat")),
              order_complex(p, interval=("0hat", "c2")),
              order_complex(p)):
        assert k.euler_characteristic() == brute_euler_characteristic(k.facets)


def test_single_facet_is_shelling():
    k = OrderComplex(("a", "b"), (frozenset({"a", "b"}),))
    assert is_shelling(k, k.facets).ok


def test_triangle_boundary():
    k = OrderComplex(
        ("a", "b", "c"),
        (frozenset("ab"), frozenset("bc"), frozenset("ca")),
    )
    assert is_shelling(k, k.facets).ok
    rmap = restriction_map(k, k.facets)
    assert sorted(len(v) for v in rmap.values()) == [0, 1, 2]
    assert rmap[k.facets[0]] == frozenset()
    rep = homotopy_report(k, k.facets)
    assert rep.wedge_counts == {1: 1}  # a circle
    assert rep.euler_characteristic == 0
    with pytest.raises(ValueError, match="contain one another"):
        OrderComplex(k.vertices, k.facets + (frozenset("a"),))


@pytest.mark.parametrize("vertices, facets", [
    ("abc", ("ab",)),
    ("a", ("ab",)),
], ids=["vertex-in-no-facet", "facet-vertex-not-listed"])
def test_every_vertex_must_lie_in_some_facet(vertices, facets):
    with pytest.raises(InvalidInputError, match="every vertex must lie in some facet"):
        OrderComplex(tuple(vertices), tuple(map(frozenset, facets)))


@pytest.mark.parametrize("order", [
    ("ab", "bc", "ca", "ab"),
    ("ab", "bc"),
    ("ab", "bc", "cz"),
    ("ab", "bc", "c"),
], ids=["repeated-facet", "missing-facet", "unknown-vertex", "proper-subset-of-a-facet"])
def test_order_must_be_a_permutation_of_the_facets(order):
    k = OrderComplex(("a", "b", "c"), (frozenset("ab"), frozenset("bc"), frozenset("ca")))
    for facets in (list(map(frozenset, order)), list(map(tuple, order)), list(order)):
        with pytest.raises(InvalidInputError, match="permutation of the facets"):
            is_shelling(k, facets)
        with pytest.raises(InvalidInputError, match="permutation of the facets"):
            restriction_map(k, facets)


def test_order_complex_and_is_shelling_stay_small():
    # B_6: 720 facets on 64 vertices, the order given as chain tuples.  With
    # every facet held as a frozenset of vertices (and the order read into
    # frozensets), order_complex kept 519 KiB and the peak from order_complex
    # through is_shelling was 1,150 KiB on Python 3.11.7; on vertex bitmasks
    # they are 32 KiB and 140 KiB.
    p, lab = shuffled_boolean_lattice(6, 0)
    order = lex_order_max_chains(lab, p)
    root_trie(p, None)
    tracemalloc.start()
    try:
        assert is_shelling(order_complex(p), order).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_150 * 1024 // 3


def test_order_complex_keeps_only_the_facet_masks():
    # T_9: 512 facets on 36 vertices.  Read off a RootTrie, whose nodes each
    # held a mask, the traced peak was 343 KiB on Python 3.11.7; walking the
    # chains along the covers, it is 26-31 KiB
    p, _ = diamond_tower(9)
    tracemalloc.start()
    try:
        k = order_complex(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(k.facets) == 512 and peak < 128 * 1024


@pytest.mark.parametrize("count", [0, 7, 1024, 1025, 2500])
def test_vertex_masks_join_blocks_of_facets(count):
    # the masks are ORed 1024 facets at a time and the blocks joined as bytes
    rng = random.Random(count)
    facets = [tuple(rng.sample(range(40), rng.randint(0, 6))) for _ in range(count)]
    expected = [0] * 41  # vertex 40 is in no facet
    for pos, idx in enumerate(facets):
        for i in idx:
            expected[i] |= 1 << pos
    assert _vertex_masks(facets, 41) == expected


def test_homotopy_report_euler_mismatch_raises(monkeypatch):
    k = OrderComplex(
        ("a", "b", "c"),
        (frozenset("ab"), frozenset("bc"), frozenset("ca")),
    )
    monkeypatch.setattr(OrderComplex, "euler_characteristic", lambda self: 1)
    with pytest.raises(EulerMismatchError):
        homotopy_report(k, k.facets)


def test_two_disjoint_edges_not_shellable():
    k = OrderComplex(("a", "b", "c", "d"), (frozenset("ab"), frozenset("cd")))
    assert brute_force_shellable(k) is None
    assert not is_shelling(k, k.facets).ok


def test_formulations_agree_by_exhaustion(fig5q):
    # literal oracle over all 120 permutations of the five facets
    k = order_complex(fig5q.poset)
    good = shelling_orders_by_exhaustion(k.facets)
    assert good == []
    from itertools import permutations

    for perm in permutations(k.facets):
        a = is_shelling(k, perm).ok
        b = _is_shelling_literal(perm)
        assert a == b == False  # noqa: E712


def test_fig5q_not_shellable(fig5q):
    assert brute_force_shellable(order_complex(fig5q.poset)) is None


def test_fig1_complex_shellable(fig1):
    k = order_complex(fig1.poset)
    order = brute_force_shellable(k)
    assert order is not None
    assert is_shelling(k, order).ok
    # the full complex of a bounded poset is a double cone: contractible
    rep = homotopy_report(k, order)
    assert rep.wedge_counts == {}
    assert rep.euler_characteristic == 1


def test_brute_force_budget(fig2):
    k = order_complex(fig2.poset)  # 24 facets
    with pytest.raises(BudgetExceededError):
        brute_force_shellable(k)
    order = brute_force_shellable(k, max_facets=24)
    assert order is not None and is_shelling(k, order).ok


def test_restriction_map_requires_shelling():
    k = OrderComplex(("a", "b", "c", "d"), (frozenset("ab"), frozenset("cd")))
    with pytest.raises(NotAShellingError):
        restriction_map(k, k.facets)


def test_fig2_lex_order_shells_and_formulations_agree(fig2):
    p, bold = fig2.poset, fig2.labeling("bold")
    k = order_complex(p)
    order = [frozenset(c) for c in lex_order_max_chains(bold, p)]
    assert is_shelling(k, order).ok
    assert _is_shelling_literal(order)
    reversed_order = list(reversed(order))
    assert is_shelling(k, reversed_order).ok == _is_shelling_literal(reversed_order)


def test_nonpure_shelling_fig3(fig3):
    q, left = fig3.poset, fig3.labeling("left")
    k = order_complex(q)
    assert len({len(f) for f in k.facets}) > 1  # genuinely nonpure
    order = [frozenset(c) for c in lex_order_max_chains(left, q)]
    assert is_shelling(k, order).ok
    assert _is_shelling_literal(order)


def test_descending_chains_fig2(fig2):
    p, bold = fig2.poset, fig2.labeling("bold")
    chains = descending_chains(p, bold, "0hat", "c2")
    seqs = sorted(label_sequence(bold, ("0hat",), c) for c in chains)
    assert seqs == [(1, 6, 1), (1, 7, 1), (1, 9, 1), (1, 11, 1)]


def test_descending_chains_excludes_increasing(fig1):
    p, left = fig1.poset, fig1.labeling("left")
    chains = descending_chains(p, left, "0hat", "1hat")
    assert ("0hat", "a", "c", "1hat") not in chains  # the increasing chain
    # oracle: the all-weak-descent chains of this edge labeling
    expected = [
        c for c in maximal_chains(p)
        if all(
            left.label(c[:i + 1], c[i], c[i + 1]) >= left.label(c[:i + 2], c[i + 1], c[i + 2])
            for i in range(len(c) - 2)
        )
    ]
    assert chains == expected


def test_descending_chains_ambiguous_root(fig1):
    with pytest.raises(AmbiguousRootError):
        descending_chains(fig1.poset, fig1.labeling("left"), "c", "1hat")
    assert descending_chains(
        fig1.poset, fig1.labeling("left"), "c", "1hat", root=("0hat", "a", "c")
    ) == [("c", "1hat")]


def test_homotopy_open_interval_wedges(fig2):
    p = fig2.poset
    for atom in p.atoms():
        k = order_complex(p, interval=(atom, "1hat"))
        rep = homotopy_report(k, brute_force_shellable(k))
        assert rep.wedge_counts == {1: 1}
    k = order_complex(p, interval=("0hat", "c2"))
    rep = homotopy_report(k, brute_force_shellable(k, max_facets=12))
    assert rep.euler_characteristic == 1 - rep.total_spheres()


def test_complex_json_roundtrip(fig5q):
    k = order_complex(fig5q.poset)
    data = json.loads(json.dumps(complex_to_json(k)))
    k2 = complex_from_json(data)
    assert sorted(map(sorted, k2.facets)) == sorted(map(sorted, k.facets))
