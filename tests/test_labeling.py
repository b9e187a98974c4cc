import json

import pytest

from shellab import (
    AmbiguousOrderError,
    CELabeling,
    InvalidInputError,
    InvalidIntervalError,
    InvalidRootError,
    MissingLabelError,
    build_poset,
    classify,
    descent_set,
    is_topological_ascent,
    label_sequence,
    labeling_from_json,
    labeling_to_json,
    lex_compare,
    lex_order_max_chains,
    maximal_chains,
    relabel_from_order,
)
from shellab.chains import root_trie


def test_label_sequences_fig1(fig1):
    p, left = fig1.poset, fig1.labeling("left")
    assert label_sequence(left, ("0hat",), ("0hat", "a", "c", "1hat")) == (1, 2, 3)
    assert label_sequence(left, ("0hat",), ("0hat", "a")) == (1,)


def test_label_sequence_accumulates_root(fig1):
    p, middle = fig1.poset, fig1.labeling("middle")
    # the top cover of the same coatom is labeled differently per root
    assert label_sequence(middle, ("0hat",), ("0hat", "a", "c", "1hat")) == (1, 2, 3)
    assert label_sequence(middle, ("0hat",), ("0hat", "b", "c", "1hat")) == (3, 2, 1)


@pytest.mark.parametrize("mode", ["edge", "chain-edge"])
@pytest.mark.parametrize("root", [("bogus",), ("0hat", "b"), ()])
def test_a_root_that_is_not_one_raises_in_both_modes(fig1, mode, root):
    p, lab = fig1.poset, fig1.labeling("right")
    if mode == "chain-edge":  # the same labels, keyed by root
        lab = CELabeling._from_nodes(p, lab._by_node(root_trie(p, None)))
    with pytest.raises(InvalidRootError, match="is not a root of '0hat'"):
        is_topological_ascent(lab, root, "0hat", "a", "c")
    with pytest.raises(InvalidRootError, match="is not a root of '0hat'"):
        label_sequence(lab, root, ("0hat", "a", "c"))
    with pytest.raises(InvalidRootError, match="is not a root of '0hat'"):
        lab.label(root, "0hat", "a")
    # a root of the lower element, but not of the lower element of the cover
    with pytest.raises(InvalidRootError, match="is not a root of 'a'"):
        lab.label(("0hat",), "a", "c")
    with pytest.raises(InvalidRootError, match="5 is not a root of '0hat'"):
        lab.label(5, "0hat", "a")
    assert label_sequence(lab, ("0hat",), ("0hat", "a", "c")) == (1, 2)
    assert is_topological_ascent(lab, ("0hat",), "0hat", "a", "c")


def test_bold_far_left_sequence(fig2):
    p, bold = fig2.poset, fig2.labeling("bold")
    assert label_sequence(bold, ("0hat",), ("0hat", "a1", "m2", "c2", "1hat")) == (1, 9, 1, 1)


def test_lex_compare():
    assert lex_compare((1, 2), (1, 2, 3)) == -1  # proper prefix comes first
    assert lex_compare((1, 3), (1, 2, 9)) == 1
    assert lex_compare((2, 2), (2, 2)) == 0


def test_missing_label():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    with pytest.raises(MissingLabelError):
        CELabeling.from_edges(p, {})
    with pytest.raises(MissingLabelError):
        CELabeling.from_chain_table(p, {})


@pytest.mark.parametrize("bad", [1.2, 1.7, True, False, float("nan"), float("inf"), "1.5", None])
def test_non_integer_label_is_rejected(chain3, bad):
    covers = list(chain3.covers)
    with pytest.raises(InvalidInputError, match=f"label {bad!r} is not an integer"):
        CELabeling.from_edges(chain3, {c: bad if i == 1 else 1 for i, c in enumerate(covers)})
    with pytest.raises(InvalidInputError, match="is not an integer"):
        CELabeling.from_chain_table(chain3, {
            (covers[0][:1], *covers[0]): 1, (covers[0], *covers[1]): bad,
            (covers[0] + covers[1][1:], *covers[2]): 1})


def test_integral_labels_keep_working(chain3):
    lab = CELabeling.from_edges(chain3, dict(zip(chain3.covers, (1.0, "2", 3))))
    assert label_sequence(lab, ("0hat",), chain3.elements) == (1, 2, 3)
    assert all(type(x) is int for x in label_sequence(lab, ("0hat",), chain3.elements))
    assert classify(lab, chain3, kinds={"el"}).is_el


def test_topological_ascent_examples(fig1):
    p, right = fig1.poset, fig1.labeling("right")
    # in [0hat, c] the (1,2)-chain ascends, the (1,3)-chain does not
    assert is_topological_ascent(right, ("0hat",), "0hat", "a", "c")
    assert not is_topological_ascent(right, ("0hat",), "0hat", "b", "c")
    # an increasing pair still descends when a smaller sequence exists:
    # above b, (4,5) increases but (3,4) precedes it
    assert not is_topological_ascent(right, ("0hat", "b"), "b", "d", "1hat")


def test_vacuous_ascent(chain3):
    lab = CELabeling.from_edges(
        chain3, {("0hat", "m1"): 9, ("m1", "m2"): 1, ("m2", "1hat"): 5}
    )
    assert is_topological_ascent(lab, ("0hat",), "0hat", "m1", "m2")


def test_classify_fig1_panels(fig1):
    p = fig1.poset
    rep = classify(fig1.labeling("left"), p)
    assert (rep.is_el, rep.is_cl, rep.is_cc, rep.is_tcl) == (True, True, True, True)
    rep = classify(fig1.labeling("middle"), p)
    assert rep.is_cl and not rep.is_el
    assert "el" in rep.witnesses
    rep = classify(fig1.labeling("right"), p)
    assert rep.is_cc and not rep.is_cl and not rep.is_el
    # first witness in canonical order: [0hat, c] has two increasing chains
    assert (rep.witnesses["cl"]["x"], rep.witnesses["cl"]["y"]) == ("0hat", "c")
    assert len(rep.witnesses["cl"]["increasing_chains"]) == 2


def test_classify_witness_shape(fig1):
    p = fig1.poset
    bad = CELabeling.from_edges(p, {c: 1 for c in p.covers})
    rep = classify(bad, p, kinds={"tcl"})
    assert not rep.is_tcl
    w = rep.witnesses["tcl"]
    assert {"root", "x", "y", "ascending_chains"} <= set(w)


def test_implication_chain_on_corpus(fig1, fig2, fig3):
    for ex, keys in ((fig1, ("left", "middle", "right")),
                     (fig2, ("bold", "parens")),
                     (fig3, ("left", "right"))):
        for key in keys:
            rep = classify(ex.labeling(key), ex.poset)
            if rep.is_el:
                assert rep.is_cl
            if rep.is_cl:
                assert rep.is_tcl
            if rep.is_cc:
                assert rep.is_tcl
            if rep.is_ec:
                assert rep.is_cc


def test_ascending_chain_is_lex_least(fig2):
    from conftest import _chain_is_ascending_literal
    from shellab.chains import interval_chains, rooted_intervals

    p, bold = fig2.poset, fig2.labeling("bold")
    for r, x, y in rooted_intervals(p):
        chains = interval_chains(p, x, y)
        ascending = [c for c in chains if _chain_is_ascending_literal(bold, p, r, c)]
        assert len(ascending) == 1
        best = min(label_sequence(bold, r, c) for c in chains)
        assert label_sequence(bold, r, ascending[0]) == best


def test_descent_set_chain_poset(chain3):
    lab = CELabeling.from_edges(
        chain3, {("0hat", "m1"): 3, ("m1", "m2"): 2, ("m2", "1hat"): 1}
    )
    assert descent_set(lab, chain3) == frozenset()


def test_descent_set_fig1_left_matches_weak_descents(fig1):
    # oracle: for this edge labeling, a pair is a topological descent
    # exactly when its labels do not strictly increase
    from shellab.chains import roots

    p, left = fig1.poset, fig1.labeling("left")
    expected = set()
    for u in p.elements:
        for r in roots(p, u):
            for v in p.up[u]:
                for w in p.up[v]:
                    if left.label(r, u, v) >= left.label(r + (v,), v, w):
                        expected.add((r, u, v, w))
    assert descent_set(left, p) == frozenset(expected)


def test_order_preserving_relabel_keeps_tcl_and_cc(fig2):
    p, bold = fig2.poset, fig2.labeling("bold")
    remap = {v: 3 * v + 7 for v in range(0, 20)}
    rep = classify(bold.relabeled(remap), p, kinds={"tcl", "cc"})
    assert rep.is_tcl and rep.is_cc


def test_lex_order_distinct_per_labeling(fig1):
    p = fig1.poset
    orders = [lex_order_max_chains(fig1.labeling(k), p) for k in ("left", "middle", "right")]
    assert len({tuple(o) for o in orders}) == 3


def test_lex_order_ties_raise():
    p = build_poset(["0hat", "a", "b", "1hat"],
                    [("0hat", "a"), ("0hat", "b"), ("a", "1hat"), ("b", "1hat")])
    lab = CELabeling.from_edges(
        p, {("0hat", "a"): 1, ("0hat", "b"): 1, ("a", "1hat"): 2, ("b", "1hat"): 2}
    )
    with pytest.raises(AmbiguousOrderError):
        lex_order_max_chains(lab, p)
    assert len(lex_order_max_chains(lab, p, tie_break=True)) == 2


def test_cc_labeling_never_needs_tie_break(fig2, fig3):
    for ex, key in ((fig2, "bold"), (fig3, "left")):
        lex_order_max_chains(ex.labeling(key), ex.poset)  # must not raise


def test_labeling_json_roundtrip(fig1):
    p = fig1.poset
    for key in ("left", "middle"):
        lab = fig1.labeling(key)
        data = json.loads(json.dumps(labeling_to_json(lab)))
        back = labeling_from_json(p, data)
        for root, u, v in [(("0hat",), "0hat", "a"), (("0hat", "a"), "a", "c")]:
            assert back.label(root, u, v) == lab.label(root, u, v)


def test_self_consistency_flags(fig1, chain3):
    lab = CELabeling.from_edges(
        chain3, {("0hat", "m1"): 1, ("m1", "m2"): 2, ("m2", "1hat"): 3}
    )
    assert classify(lab, chain3).is_self_consistent
    # left panel: the poset is CL-shellable via this labeling, and the atom
    # of the lex-first chain stays ahead in every interval over the bottom
    assert classify(fig1.labeling("left"), fig1.poset).is_self_consistent


def test_single_queries_need_no_rooted_cover_budget():
    from shellab.chains import DEFAULT_ROOTED_COVER_BUDGET, rooted_cover_count, roots
    from shellab.shelling import descending_chains

    # B_7, edge (S, S + i) labeled i: an EL-labeling with 13,699 rooted covers
    n = 7
    name = lambda s: "".join(map(str, sorted(s))) or "e"
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(2 ** n)]
    table = {(name(s), name(s | {i})): i for s in subsets for i in range(n) if i not in s}
    p = build_poset([name(s) for s in subsets], list(table))
    assert rooted_cover_count(p) > DEFAULT_ROOTED_COVER_BUDGET
    lab = CELabeling.from_edges(p, table)

    assert is_topological_ascent(lab, ("e", "0"), "0", "01", "012")
    assert not is_topological_ascent(lab, ("e", "1"), "1", "12", "012")
    assert len(roots(p, p.top)) == 5040
    # the unique all-descent chain adds the elements in decreasing order
    assert descending_chains(p, lab, p.bottom, p.top) == [
        ("e", "6", "56", "456", "3456", "23456", "123456", "0123456")]


def test_chain_edge_root_must_be_a_list():
    from conftest import string_root_case

    p, data = string_root_case()
    with pytest.raises(InvalidInputError, match=r"labeling entry \{'root': '0', 'from': '0', "
                       r"'to': 'a', 'label': 1\} has a \"root\" that is not a list"):
        labeling_from_json(p, data)
    for e in data["labels"]:
        e["root"] = list(e["root"])
    assert classify(labeling_from_json(p, data), p).is_cl


def test_chain_edge_label_of_a_non_cover_is_an_interval_error(fig1):
    lab = relabel_from_order(fig1.poset, maximal_chains(fig1.poset))  # chain-edge labels
    with pytest.raises(InvalidIntervalError, match="is not a saturated chain"):
        lab.label(("0hat",), "0hat", "c")
