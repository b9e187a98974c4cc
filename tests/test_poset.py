import copy
import json
import tracemalloc

import pytest

from shellab import (
    CycleDetectedError,
    NotBoundedError,
    RedundantCoverError,
    build_poset,
    dual,
    interval_chains,
    is_graded,
    order_complex,
    ordinal_sum,
    poset_from_json,
    poset_to_json,
    random_bounded_poset,
    rooted_interval_count,
    to_dot,
)
from conftest import bfs_reachable


def test_smallest_bounded_poset():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    assert p.bottom == "0hat" and p.top == "1hat"
    assert p.length() == 1
    assert is_graded(p)


def test_fig1_poset_valid(fig1):
    p = fig1.poset
    assert len(p.elements) == 6 and len(p.covers) == 8
    assert is_graded(p)


def test_two_cycle_rejected():
    with pytest.raises(CycleDetectedError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_self_loop_rejected():
    with pytest.raises(CycleDetectedError):
        build_poset(["a", "b"], [("a", "a"), ("a", "b")])


def test_redundant_cover_rejected():
    with pytest.raises(RedundantCoverError):
        build_poset(
            ["0hat", "m", "1hat"],
            [("0hat", "m"), ("m", "1hat"), ("0hat", "1hat")],
        )


def test_unbounded_rejected():
    with pytest.raises(NotBoundedError):
        build_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    with pytest.raises(NotBoundedError):
        build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])


def test_duplicate_cover_rejected():
    with pytest.raises(ValueError):
        build_poset(["a", "b"], [("a", "b"), ("a", "b")])


def test_leq_matches_bfs_oracle(fig2):
    p = fig2.poset
    for a in p.elements:
        reach = bfs_reachable(p.covers, a)
        for b in p.elements:
            assert p.leq(a, b) == (b in reach)


def test_antisymmetry(fig3):
    p = fig3.poset
    for a in p.elements:
        for b in p.elements:
            if p.leq(a, b) and p.leq(b, a):
                assert a == b


def test_gradedness_on_corpus(fig2, fig3):
    assert is_graded(fig2.poset)
    assert not is_graded(fig3.poset)


def test_dual_is_involution(fig2):
    assert dual(dual(fig2.poset)) == fig2.poset


def test_dual_of_edge_is_itself():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    d = dual(p)
    assert d.bottom == "1hat" and d.top == "0hat"
    assert dual(d) == p


def test_dual_swaps_atoms_and_coatoms(fig3):
    q = fig3.poset
    assert set(dual(q).atoms()) == set(q.coatoms())


def test_graded_invariant_under_dual(fig2, fig3):
    for p in (fig2.poset, fig3.poset):
        assert is_graded(p) == is_graded(dual(p))


def test_ordinal_sum_of_edges_is_chain():
    e1 = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    e2 = build_poset(["x", "y"], [("x", "y")])
    s = ordinal_sum(e1, e2)
    assert s.length() == 3
    assert len(s.elements) == 4


def test_ordinal_sum_lengths_add(fig2):
    p = fig2.poset
    s = ordinal_sum(p, dual(p))
    assert s.length() == 9
    assert len(s.elements) == 2 * len(p.elements)
    assert is_graded(s)


def test_ordinal_sum_renames_collisions():
    e = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    s = ordinal_sum(e, e)
    assert len(set(s.elements)) == 4


def test_random_poset_deterministic():
    assert random_bounded_poset(1, 2, 1.0).covers == (("0hat", "1hat"),)
    assert random_bounded_poset(7, 8, 0.3) == random_bounded_poset(7, 8, 0.3)


def test_random_poset_passes_validation():
    for seed in range(1, 30):
        p = random_bounded_poset(seed, 2 + seed % 9, 0.3)
        # rebuilding through the validator must accept the same data
        q = build_poset(p.elements, p.covers)
        assert q == p


def test_json_roundtrip(fig3):
    p = fig3.poset
    assert poset_from_json(json.loads(json.dumps(poset_to_json(p)))) == p


def test_dot_export(fig1):
    dot = to_dot(fig1.poset)
    assert dot.startswith("digraph")
    assert '"0hat" -> "a"' in dot


def test_poset_from_json_accepts_tuple_pairs():
    data = {"elements": ("0", "a", "1"), "covers": [("0", "a"), ["a", "1"]]}
    p = poset_from_json(data)
    assert list(p.covers) == [("0", "a"), ("a", "1")]


def test_queries_leave_every_derived_field_as_construction_set_it(fig2):
    # Poset derives its tables in __init__; only the budgeted RootTrie cache
    # may be set later
    p = fig2.poset
    slots = [s for s in type(p).__slots__ if s != "_root_trie"]
    before = {s: copy.deepcopy(getattr(p, s)) for s in slots}
    for x, y in [(p.bottom, p.top), ("0hat", "c2"), ("a1", "a1")]:
        interval_chains(p, x, y)
    for x in p.elements:
        p.path_count(x)
    p.length()
    is_graded(p)
    rooted_interval_count(p)
    order_complex(p, ("0hat", "c2"))
    assert {s: getattr(p, s) for s in slots} == before


def test_a_long_chain_is_built_without_a_down_closure():
    # the order is kept as up-sets only; with a down-set per element as
    # well, C_1000 allocated about 42 MiB
    chain = [f"c{i}" for i in range(1000)]
    tracemalloc.start()
    try:
        build_poset(chain, list(zip(chain, chain[1:])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2 ** 20
