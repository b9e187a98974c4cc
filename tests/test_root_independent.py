"""Root-independent labelings are decided at one root per element.

Under an edge labeling, or a chain-edge labeling whose labels ignore the
root, a rooted interval [x, y]_r has the verdicts of [x, y] under the first
root of x, so classify() decides only those.  These posets carry labelings
that pass CL, where random labels rarely do once a poset has more than one
maximal chain; each gets the edge labeling, the same labels as a chain-edge
table, and that table with one label made root-dependent.  Every kind, with
its witness, and the descent set must match the literal oracles.
"""

import random

import pytest

from shellab import (
    CELabeling,
    build_poset,
    classify,
    descent_set,
    lex_order_max_chains,
    random_bounded_poset,
    relabel_from_order,
    rooted_interval_count,
)
from shellab.chains import root_trie
from shellab.labeling import KINDS
from conftest import (
    _classify_literal,
    _descent_set_literal,
    diamond_tower,
    shuffled_boolean_lattice,
)


def _seeded_injective(seed, n, edge_probability):
    """A nongraded poset with more than two maximal chains, and injective
    edge labels in a seeded order that the literal oracle finds CL."""
    p = random_bounded_poset(seed, n, edge_probability)
    perm = list(range(1, len(p.covers) + 1))
    random.Random(seed).shuffle(perm)
    return p, CELabeling.from_edges(p, dict(zip(p.covers, perm)))


POSETS = {
    "B3-shuffled-0": lambda: shuffled_boolean_lattice(3, 0),
    "B3-shuffled-1": lambda: shuffled_boolean_lattice(3, 1),
    "B4-shuffled-2": lambda: shuffled_boolean_lattice(4, 2),
    "tower-2": lambda: diamond_tower(2),
    "tower-3": lambda: diamond_tower(3),
    "seed-300": lambda: _seeded_injective(300, 7, 0.3),
    "seed-481": lambda: _seeded_injective(481, 8, 0.4),
    "seed-532": lambda: _seeded_injective(532, 7, 0.4),
    "seed-694": lambda: _seeded_injective(694, 9, 0.3),
    "seed-1028": lambda: _seeded_injective(1028, 7, 0.4),
    "seed-1861": lambda: _seeded_injective(1861, 8, 0.4),
}


def _three_labelings(p, edge):
    """The edge labeling, its chain-edge table, and that table with the
    label into the last node whose lower element has several roots moved
    above every other label."""
    trie = root_trie(p, None)
    lab_in = edge._by_node(trie)
    v = max(v for v in range(1, len(trie)) if len(trie.nodes_of[trie.elem[trie.parent[v]]]) > 1)
    moved = list(lab_in)
    moved[v] = max(lab_in[1:]) + 1
    return {"edge": edge, "chain-edge": CELabeling._from_nodes(p, list(lab_in)),
            "root-dependent": CELabeling._from_nodes(p, moved)}


@pytest.mark.parametrize("name", sorted(POSETS))
def test_pinned_cl_posets_match_literal_oracles(name):
    p, edge = POSETS[name]()
    assert _classify_literal(edge, p, {"cl"}).is_cl
    labs = _three_labelings(p, edge)
    assert labs["chain-edge"].is_root_independent()
    assert not labs["root-dependent"].is_root_independent()
    for lab in labs.values():
        for kind in KINDS:
            assert classify(lab, p, kinds={kind}) == _classify_literal(lab, p, {kind}), kind
        assert classify(lab, p) == _classify_literal(lab, p, KINDS)
        assert descent_set(lab, p) == _descent_set_literal(lab, p)


def test_edge_labeling_decides_one_root_per_element():
    p, lab = shuffled_boolean_lattice(5, 0)
    rep = classify(lab, p)
    assert rep.is_el and rep.is_self_consistent
    # one rooted interval per pair x < y of subsets of a 5-set
    assert rep.rooted_intervals == 3 ** 5 - 2 ** 5 == 211 < rooted_interval_count(p)
    # the same labels keyed by trie node are still root-independent
    same = CELabeling._from_nodes(p, lab._by_node(root_trie(p, None)))
    assert classify(same, p).rooted_intervals == 211


def test_root_dependent_labeling_decides_every_rooted_interval():
    p, lab = shuffled_boolean_lattice(4, 3)
    relabeled = relabel_from_order(p, lex_order_max_chains(lab, p))
    assert not relabeled.is_root_independent()
    rep = classify(relabeled, p, kinds={"cc"})
    assert rep.is_cc and rep.rooted_intervals == rooted_interval_count(p)


def test_work_counter_stops_with_the_last_failed_kind():
    # the chain-poset diamond: the only interval with two chains fails CL
    p = build_poset(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    lab = CELabeling.from_edges(p, {("0", "a"): 1, ("a", "1"): 1, ("0", "b"): 1, ("b", "1"): 1})
    rep = classify(lab, p, kinds={"cl"})
    assert not rep.is_cl and rep.witnesses["cl"]["x"] == "0" and rep.witnesses["cl"]["y"] == "1"
    assert rep.rooted_intervals == 3  # [0, a], [0, b], then [0, 1] fails
    assert rep == _classify_literal(lab, p, {"cl"})
