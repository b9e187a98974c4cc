import pytest

from shellab import (
    CELabeling,
    InvalidInputError,
    build_poset,
    classify,
    descent_set,
    lex_order_max_chains,
    maximal_chains,
    relabel_from_order,
    rooted_cover_relations,
    verify_block_structure,
    verify_label_bound,
)


@pytest.fixture
def two_chain_poset():
    """Two maximal chains meeting only at bottom and top."""
    return build_poset(
        ["0hat", "a", "b", "p", "q", "1hat"],
        [("0hat", "a"), ("a", "p"), ("p", "1hat"),
         ("0hat", "b"), ("b", "q"), ("q", "1hat")],
    )


def test_two_disjoint_chains_no_sandwich(two_chain_poset):
    p = two_chain_poset
    m1 = ("0hat", "a", "p", "1hat")
    m2 = ("0hat", "b", "q", "1hat")
    lab = relabel_from_order(p, (m1, m2))
    # hand-executed: every rooted cover in m1 gets 1, in m2 gets 2
    assert lab.label(("0hat",), "0hat", "a") == 1
    assert lab.label(("0hat", "a"), "a", "p") == 1
    assert lab.label(("0hat", "a", "p"), "p", "1hat") == 1
    assert lab.label(("0hat",), "0hat", "b") == 2
    assert lab.label(("0hat", "b"), "b", "q") == 2
    assert lab.label(("0hat", "b", "q"), "q", "1hat") == 2


@pytest.fixture
def sandwich_poset():
    """Atom a sits on two maximal chains, atom b on one."""
    return build_poset(
        ["0hat", "a", "b", "u", "v", "1hat"],
        [("0hat", "a"), ("0hat", "b"), ("a", "u"), ("a", "v"),
         ("b", "u"), ("u", "1hat"), ("v", "1hat")],
    )


def test_sandwich_clause_fires(sandwich_poset):
    p = sandwich_poset
    m1 = ("0hat", "a", "u", "1hat")
    m2 = ("0hat", "b", "u", "1hat")
    m3 = ("0hat", "a", "v", "1hat")
    lab = relabel_from_order(p, (m1, m2, m3))
    # hand-executed: b first appears at position 2, but a appears at 1 and 3,
    # so the cover to b inherits a's label
    assert lab.label(("0hat",), "0hat", "a") == 1
    assert lab.label(("0hat",), "0hat", "b") == 1


def test_order_must_be_permutation(two_chain_poset):
    with pytest.raises(ValueError):
        relabel_from_order(two_chain_poset, (("0hat", "a", "p", "1hat"),))
    # the second chain skips the cover b < q
    with pytest.raises(InvalidInputError, match="order must be a permutation"):
        relabel_from_order(two_chain_poset, (("0hat", "a", "p", "1hat"), ("0hat", "b", "1hat")))


def test_lex_order_of_ec_labeling_relabels_to_cc(fig2):
    p, bold = fig2.poset, fig2.labeling("bold")
    lab2 = relabel_from_order(p, lex_order_max_chains(bold, p))
    assert classify(lab2, p, kinds={"cc"}).is_cc


def test_relabel_preserves_descents(fig2, fig3):
    for ex, key in ((fig2, "bold"), (fig3, "left")):
        p, lab = ex.poset, ex.labeling(key)
        lab2 = relabel_from_order(p, lex_order_max_chains(lab, p))
        assert descent_set(lab2, p) == descent_set(lab, p)


def test_label_bound_holds(fig1, fig2, two_chain_poset):
    for p, order in [
        (fig1.poset, lex_order_max_chains(fig1.labeling("left"), fig1.poset)),
        (fig2.poset, lex_order_max_chains(fig2.labeling("bold"), fig2.poset)),
        (two_chain_poset, maximal_chains(two_chain_poset)),
    ]:
        lab = relabel_from_order(p, order)
        assert verify_label_bound(p, order, lab)


def test_label_bound_negative_control(two_chain_poset):
    p = two_chain_poset
    order = maximal_chains(p)
    lab = relabel_from_order(p, order)
    corrupted = CELabeling(
        p,
        chain_table={
            key: (99 if key == (("0hat",), "0hat", "a") else lab.label(*key))
            for key in rooted_cover_relations(p)
        },
    )
    assert not verify_label_bound(p, order, corrupted)


def test_block_structure_holds_for_arbitrary_orders(fig1):
    import random

    p = fig1.poset
    chains = list(maximal_chains(p))
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(chains)
        lab = relabel_from_order(p, chains)
        assert verify_block_structure(p, chains, lab)
        assert verify_label_bound(p, chains, lab)


def test_block_structure_negative_control():
    # three-atom fan with labels 1, 3, 1 in first-appearance order: the two
    # equal labels are separated, so the blocks are not contiguous
    q = build_poset(
        ["0hat", "a", "b", "c", "1hat"],
        [("0hat", "a"), ("0hat", "b"), ("0hat", "c"),
         ("a", "1hat"), ("b", "1hat"), ("c", "1hat")],
    )
    order_q = (("0hat", "a", "1hat"), ("0hat", "b", "1hat"), ("0hat", "c", "1hat"))
    lab_q = relabel_from_order(q, order_q)
    bottom_labels = {"a": 1, "b": 3, "c": 1}
    broken_q = CELabeling(
        q,
        chain_table={
            key: (bottom_labels[key[2]] if key[1] == "0hat" else lab_q.label(*key))
            for key in rooted_cover_relations(q)
        },
    )
    assert not verify_block_structure(q, order_q, broken_q)


def test_distinct_atoms_get_distinct_sequences(fig3):
    from shellab.chains import interval_chains, rooted_intervals
    from shellab.labeling import label_sequence

    p = fig3.poset
    lab = relabel_from_order(p, lex_order_max_chains(fig3.labeling("left"), p))
    for r, x, y in rooted_intervals(p):
        chains = interval_chains(p, x, y)
        seqs = {}
        for c in chains:
            seqs.setdefault(c[1], set()).add(label_sequence(lab, r, c))
        atoms = list(seqs)
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                assert not (seqs[a] & seqs[b])
        # no sequence is a proper prefix of another
        all_seqs = sorted(s for group in seqs.values() for s in group)
        for s1, s2 in zip(all_seqs, all_seqs[1:]):
            assert s2[: len(s1)] != s1 or s1 == s2
