"""Every expectation recorded in a fixture is re-derived by the live code."""

import pytest

from shellab import (
    CELabeling,
    UnknownNameError,
    brute_force_shellable,
    check_lc,
    check_rfas,
    chain_order_dag,
    classify,
    corpus,
    dual,
    find_grao,
    find_rao,
    is_graded,
    is_shelling,
    lex_order_max_chains,
    maximal_chains,
    order_complex,
    rao_pair_obstructions,
    roots,
)


def test_names():
    assert corpus.names() == ("fig1", "fig2-P", "fig3-Q", "fig5-P", "fig5-Q", "fig8")


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        corpus.load_named("fig9")


def test_fig2_shape(fig2):
    p = fig2.poset
    assert is_graded(p)
    assert len(p.atoms()) == 3
    rank2 = [e for e in p.elements if e.startswith("m")]
    assert len(rank2) == 6
    assert len(p.coatoms()) == 4


def test_fig5q_shape(fig5q):
    assert len(fig5q.poset.elements) == 8


def test_fig1_shape(fig1):
    assert len(fig1.poset.elements) == 6
    assert len(fig1.labelings) == 3


def _dual_labeling(poset, lab):
    return CELabeling.from_edges(
        dual(poset), {(b, a): lab.label(roots(poset, a)[0], a, b) for (a, b) in poset.covers}
    )


@pytest.mark.parametrize("name", corpus.names())
def test_recorded_expectations(name):
    ex = corpus.load_named(name)
    p = ex.poset
    expected = ex.expected

    if "graded" in expected:
        assert is_graded(p) == expected["graded"]

    if "maximal_chain_count" in expected:
        assert len(maximal_chains(p)) == expected["maximal_chain_count"]

    for key, flags in expected.get("classify", {}).items():
        rep = classify(ex.labeling(key), p, kinds=set(flags))
        for kind, want in flags.items():
            assert rep.flag(kind) == want, (name, key, kind)

    for key, flags in expected.get("dual_classify", {}).items():
        rep = classify(_dual_labeling(p, ex.labeling(key)), dual(p), kinds=set(flags))
        for kind, want in flags.items():
            assert rep.flag(kind) == want, (name, key, kind)

    if expected.get("lex_orders_pairwise_distinct"):
        keys = expected["lex_orders_pairwise_distinct"]
        orders = {tuple(lex_order_max_chains(ex.labeling(k), p)) for k in keys}
        assert len(orders) == len(keys)

    for flag_key, labkey in (("bold_lex_order_is_shelling", "bold"),
                             ("left_lex_order_is_shelling", "left")):
        if expected.get(flag_key):
            order = lex_order_max_chains(ex.labeling(labkey), p)
            assert is_shelling(order_complex(p), [frozenset(c) for c in order]).ok

    if "rao" in expected:
        found = find_rao(p)
        assert (found is not None) == (expected["rao"] == "found")
    if "grao" in expected:
        found = find_grao(p)
        assert (found is not None) == (expected["grao"] == "found")

    if expected.get("pair_obstructions_cover_all_atom_pairs"):
        pairs = {(a, b) for a, b, _ in rao_pair_obstructions(p)}
        atoms = p.atoms()
        assert pairs == {(a, b) for a in atoms for b in atoms if a != b}
    if "pair_obstructions" in expected:
        assert [list(t) for t in rao_pair_obstructions(p)] == expected["pair_obstructions"]

    for key, want in expected.get("rfas", {}).items():
        report = check_rfas(p, ex.first_atom_set(key))
        assert report.ok == want["ok"], (name, key)
        if "violated_directions" in want:
            directions = {v.direction for v in report.violations if v.condition == "i"}
            assert set(want["violated_directions"]) <= directions
        if "condition_i_ok" in want:
            has_i = any(v.condition == "i" for v in report.violations)
            assert (not has_i) == want["condition_i_ok"]
        if "condition_ii_ok" in want:
            has_ii = any(v.condition == "ii" for v in report.violations)
            assert (not has_ii) == want["condition_ii_ok"]

    if "first_atom_chain_C_of_xy" in expected:
        from shellab import first_atom_chain

        omega = ex.first_atom_set("C")
        got = first_atom_chain(omega, (p.bottom,), p.bottom, p.top)
        assert list(got) == expected["first_atom_chain_C_of_xy"]

    if "chain_order_contains_path" in expected:
        dag = chain_order_dag(p, ex.first_atom_set("omega"))
        path = [tuple(c) for c in expected["chain_order_contains_path"]]
        for m, m2 in zip(path, path[1:]):
            assert dag.precedes(m, m2)

    if expected.get("lc_extension") == "none":
        assert check_lc(p, ex.first_atom_set("omega")) is None

    if "brute_force_shellable" in expected:
        got = brute_force_shellable(order_complex(p))
        assert (got is not None) == expected["brute_force_shellable"]
