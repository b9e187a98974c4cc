"""Root-independent labelings are decided once per interval.

Under an edge labeling, or a chain-edge labeling whose labels ignore the
root, a rooted interval [x, y]_r has the verdicts of [x, y] under the first
root of x, so classify() decides each [x, y] once, by DP over covers and
without the poset's RootTrie.  The pinned posets carry labelings that pass
CL, where random labels rarely do once a poset has more than one maximal
chain; each gets the edge labeling, the same labels as a chain-edge table,
and that table with one label made root-dependent.  Every kind, with its
witness and work counter, must match the literal oracles, and so must
descent_set, descending_chains, is_compatible and lex_order_max_chains.
"""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from shellab import (
    BudgetExceededError,
    CELabeling,
    LabelingReport,
    build_poset,
    classify,
    corpus,
    descent_set,
    is_graded,
    lex_order_max_chains,
    random_bounded_poset,
    relabel_from_order,
    rooted_interval_count,
    roots,
)
from shellab import labeling
from shellab.chains import root_trie
from shellab.labeling import KINDS
from conftest import (
    _classify_literal,
    assert_readers_match_literal,
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
    rng = random.Random(name)
    for lab in labs.values():
        for kinds in [{kind} for kind in KINDS] + [set(KINDS)]:
            _assert_matches_literal(lab, p, kinds)
        assert_readers_match_literal(lab, p, rng)


def _assert_matches_literal(lab, p, kinds):
    rep, literal = classify(lab, p, kinds=kinds), _classify_literal(lab, p, kinds)
    assert rep == literal, kinds
    assert rep.rooted_intervals == literal.rooted_intervals, kinds


def _ranked_labels(p, seed):
    """Edge labels from the ranks L of a seeded linear extension: the cover
    u < v gets (L(v) - L(u)) // k, with k from 1 to 3, so k > 1 injects
    ties.  These pass EL far more often than uniform labels: on 1,000 draws
    like the ones below with three or more maximal chains, 86 of the 352
    graded posets against 40 (nongraded ones are almost never EL)."""
    rng = random.Random(seed)
    indeg = {e: len(p.down[e]) for e in p.elements}
    ready, rank = [p.bottom], {}
    while ready:
        e = ready.pop(rng.randrange(len(ready)))
        rank[e] = len(rank)
        for w in p.up[e]:
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    k = rng.randint(1, 3)
    return {(u, v): (rank[v] - rank[u]) // k for u, v in p.covers}


posets = st.builds(
    random_bounded_poset,
    seed=st.integers(min_value=0, max_value=10 ** 6),
    n=st.integers(min_value=2, max_value=9),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=60, deadline=None)
@given(posets, st.booleans(), st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_interval_dp_matches_literal_oracle(p, graded, seed, ranked):
    assume(is_graded(p) == graded)
    if ranked:
        table = _ranked_labels(p, seed)
    else:
        rng = random.Random(seed)
        table = {c: rng.randint(1, 3) for c in p.covers}
    lab = CELabeling.from_edges(p, table)
    for kinds in [{kind} for kind in KINDS] + [set(KINDS)]:
        _assert_matches_literal(lab, p, kinds)
    assert p._root_trie is None


@pytest.mark.parametrize("name, key", [
    ("fig2-P", "bold"), ("fig2-P", "parens"), ("fig3-Q", "left"), ("fig3-Q", "right")])
def test_interval_dp_matches_literal_oracle_on_corpus(name, key):
    # fig3-Q's left labeling is TCL but not CL: the sequences of its
    # intervals include proper prefixes of one another
    ex = corpus.load_named(name)
    for kinds in [{kind} for kind in KINDS] + [set(KINDS)]:
        _assert_matches_literal(ex.labeling(key), ex.poset, kinds)


def _weak_descents(lab, p):
    """The rooted cover triples (r, u, v, w) whose labels do not strictly
    increase, read off lab.label alone."""
    return frozenset((r, u, v, w) for u in p.elements for r in roots(p, u)
                     for v in p.up[u] for w in p.up[v]
                     if lab.label(r, u, v) >= lab.label(r + (v,), v, w))


def _cl_candidates():
    """(name, poset, labeling): every corpus labeling, and _ranked_labels
    edge labels on 600 seeded posets, each also as a chain-edge table."""
    for name in corpus.names():
        ex = corpus.load_named(name)
        for key in ex.labelings:
            yield f"{name}/{key}", ex.poset, ex.labeling(key)
    for seed in range(600):
        rng = random.Random(seed)
        p = random_bounded_poset(seed, rng.randint(2, 9), rng.random())
        edge = CELabeling.from_edges(p, _ranked_labels(p, seed))
        yield seed, p, edge
        yield f"{seed}/chain-edge", p, CELabeling._from_nodes(p, edge._by_node(root_trie(p, None)))


def test_cl_labelings_ascend_exactly_where_labels_rise():
    # Björner-Wachs: the unique increasing chain of a CL-labeling's rooted
    # interval is its lex-first chain, so a rooted cover triple is a
    # topological ascent iff its labels strictly increase: CL and TCL then
    # differ only where their ascent rules do
    found = []
    for name, p, lab in _cl_candidates():
        if classify(lab, p, kinds={"cl"}).is_cl:
            found.append(name)
            assert descent_set(lab, p) == _weak_descents(lab, p), name
    # 124 of the 600 draws are CL, and so are their chain-edge copies
    assert {"fig1/left", "fig1/middle"} <= set(found) and len(found) == 250


def test_edge_labeling_builds_no_trie():
    p, lab = shuffled_boolean_lattice(8, 0)
    tracemalloc.start()
    try:
        rep = classify(lab, p, kinds={"el"}, budget=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.is_el and rep.rooted_intervals == 3 ** 8 - 2 ** 8
    assert p._root_trie is None
    # about 0.16 MiB; the RootTrie of B_8's 109,600 rooted covers, with a
    # label path per node, peaked at about 24 MiB
    assert peak < 2 ** 20


def test_rooted_cover_budget_still_applies_to_edge_labelings():
    p, lab = shuffled_boolean_lattice(7, 0)
    with pytest.raises(BudgetExceededError, match="poset has 13699 rooted covers") as info:
        classify(lab, p, kinds={"el"})
    assert info.value.diagnostics == {"rooted_covers": 13699, "budget": 10_000}


def test_root_dependence_alone_fails_el_and_ec(monkeypatch):
    p, edge = shuffled_boolean_lattice(4, 1)
    lab = _three_labelings(p, edge)["root-dependent"]
    monkeypatch.setattr(labeling, "_Intervals", None)  # no interval is decided
    for kinds in ({"el"}, {"ec"}, {"el", "ec"}):
        assert classify(lab, p, kinds=kinds).witnesses == {
            kind: {"root_independent": False} for kind in kinds}
        _assert_matches_literal(lab, p, kinds)


def test_root_dependence_does_not_skip_the_other_checks():
    # 0 < a, b < c < 1 with the two roots of c labeling (c, 1) apart; [0, c]
    # has two chains labeled (1, 1), so CL, CC and TCL fail there as well
    p = build_poset(["0", "a", "b", "c", "1"],
                    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")])
    lab = CELabeling.from_chain_table(p, {
        (("0",), "0", "a"): 1, (("0",), "0", "b"): 1, (("0", "a"), "a", "c"): 1,
        (("0", "b"), "b", "c"): 1, (("0", "a", "c"), "c", "1"): 1,
        (("0", "b", "c"), "c", "1"): 2})
    assert not lab.is_root_independent()
    # once an interval is decided, EL and EC still run CL and CC, so
    # their witnesses and the work counter show up next to TCL's
    for kinds, checked in (({"el", "tcl"}, "cl"), ({"ec", "tcl"}, "cc")):
        rep = classify(lab, p, kinds=kinds)
        assert checked in rep.witnesses
        _assert_matches_literal(lab, p, kinds)


def test_no_kinds_decide_no_interval(monkeypatch):
    # with no kind pending the passes would visit every y, so classify
    # must not start them
    p, lab = shuffled_boolean_lattice(4, 1)
    monkeypatch.setattr(labeling, "_Intervals", None)
    rep = classify(lab, p, kinds=())
    assert rep == LabelingReport() and rep.rooted_intervals == 0


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
