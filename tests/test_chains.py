import json

import pytest

import shellab
from shellab import (
    BudgetExceededError,
    InvalidIntervalError,
    InvalidRootError,
    build_poset,
    corpus,
    interval_chains,
    maximal_chains,
    maximal_chains_rooted,
    rooted_cover_count,
    rooted_cover_relations,
    rooted_interval_count,
    rooted_intervals,
    roots,
)
from shellab.chains import DEFAULT_ROOTED_COVER_BUDGET
from shellab.shelling import order_complex
from conftest import brute_paths, brute_rooted_covers, brute_rooted_intervals


def test_edge_poset_single_chain():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    assert maximal_chains(p) == (("0hat", "1hat"),)
    assert list(rooted_intervals(p)) == [(("0hat",), "0hat", "1hat")]
    assert list(rooted_cover_relations(p)) == [(("0hat",), "0hat", "1hat")]


def test_fig1_maximal_chains(fig1):
    p = fig1.poset
    chains = maximal_chains(p)
    assert len(chains) == 4
    assert sorted(chains) == sorted(brute_paths(p.covers, p.bottom, p.top))


def test_fig5q_maximal_chains(fig5q):
    p = fig5q.poset
    assert len(maximal_chains(p)) == 5


def test_chains_are_deterministic(fig2):
    p = fig2.poset
    assert maximal_chains(p) == maximal_chains(p)
    assert maximal_chains(p) == tuple(
        sorted(brute_paths(p.covers, p.bottom, p.top),
               key=lambda c: [p.index[e] for e in c])
    )


@pytest.mark.parametrize("name", corpus.names())
def test_chain_walks_build_no_root_trie(name):
    # chains, roots and facets are walked along the covers; the RootTrie is
    # built only where a root keys a table
    q = corpus.load_named(name).poset
    p = build_poset(q.elements, q.covers)  # one that no labeling has used
    assert maximal_chains(p) == maximal_chains(q)
    order_complex(p)
    for x in p.elements:
        roots(p, x)
        for y in p.upset(x):
            interval_chains(p, x, y)
            if len(p.interval(x, y)) > 2:
                order_complex(p, interval=(x, y))
    assert p._root_trie is None


def test_rooted_interval_endpoints():
    p = build_poset(["0hat", "m1", "1hat"], [("0hat", "m1"), ("m1", "1hat")])
    assert maximal_chains_rooted(p, ("0hat", "m1"), "m1", "m1") == (("m1",),)


def test_rooted_chain_enumeration_fig1(fig1):
    p = fig1.poset
    assert len(maximal_chains_rooted(p, ("0hat",), "0hat", "c")) == 2


def test_invalid_root(fig1):
    p = fig1.poset
    with pytest.raises(InvalidRootError):
        maximal_chains_rooted(p, ("0hat", "b"), "a", "1hat")
    with pytest.raises(InvalidRootError):  # not a sequence at all
        maximal_chains_rooted(p, 5, "a", "1hat")


def test_roots_of_a_non_element(fig1):
    with pytest.raises(InvalidIntervalError, match="'zz' is not an element"):
        roots(fig1.poset, "zz")


def test_nongraded_interval_mixed_lengths(fig3):
    q = fig3.poset
    lengths = sorted(len(c) - 1 for c in interval_chains(q, "c", "1hat"))
    assert lengths == [3, 3, 5]  # frozen from the path oracle
    assert sorted(interval_chains(q, "c", "1hat")) == sorted(
        brute_paths(q.covers, "c", "1hat")
    )


def test_rooted_intervals_match_oracle(fig1):
    p = fig1.poset
    ours = list(rooted_intervals(p))
    oracle = brute_rooted_intervals(p)
    assert sorted(ours) == sorted(oracle)
    assert len(ours) == len(set(ours))  # exactly once
    assert rooted_interval_count(p) == len(oracle)


def test_rooted_covers_match_oracle(fig1, fig2):
    for ex in (fig1, fig2):
        p = ex.poset
        ours = list(rooted_cover_relations(p))
        oracle = brute_rooted_covers(p)
        assert sorted(ours) == sorted(oracle)
        assert rooted_cover_count(p) == len(oracle)


def test_fig1_rooted_cover_count(fig1):
    # two rooted covers at the bottom, four at atom level, and each top
    # cover carries one root per path to its coatom
    assert rooted_cover_count(fig1.poset) == 10


def test_chain_prefixes_are_roots(fig2):
    p = fig2.poset
    for m in maximal_chains(p):
        for i, x in enumerate(m):
            assert m[: i + 1] in roots(p, x)


def test_rooted_cover_sum_formula(fig2):
    p = fig2.poset
    assert rooted_cover_count(p) == sum(
        len(interval_chains(p, p.bottom, a)) for a, _ in p.covers
    )


def test_budget_guard():
    # a boolean-cube-like stack of diamonds explodes the rooted cover count
    elements = ["0hat"]
    covers = []
    prev = ["0hat"]
    for level in range(1, 9):
        cur = [f"x{level}a", f"x{level}b"]
        elements += cur
        covers += [(u, v) for u in prev for v in cur]
        prev = cur
    elements.append("1hat")
    covers += [(u, "1hat") for u in prev]
    p = build_poset(elements, covers)
    with pytest.raises(BudgetExceededError):
        list(rooted_intervals(p, budget=100))


def _budgeted_calls():
    """(name, call) per public function that takes the rooted-cover budget;
    call(budget) runs it on fig2-P with its bold TCL labeling, the first
    atom table read off that labeling, and the labeling relabeled from the
    canonical chain order."""
    from shellab import corpus
    from shellab.chains import ensure_budget, root_trie
    from shellab.labeling import load_labeling
    from shellab.rfas import load_first_atom_set

    example = corpus.load_named("fig2-P")
    p, lab = example.poset, example.labeling("bold")
    omega, chains = shellab.rfas_from_tcl(p, lab), maximal_chains(p)
    rel = shellab.relabel_from_order(p, chains)
    rel_json, omega_json = shellab.labeling_to_json(rel), shellab.first_atom_set_to_json(omega)
    chain_table = {(tuple(e["root"]), e["from"], e["to"]): e["label"] for e in rel_json["labels"]}

    def write(tmp_path, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    return [
        ("ensure_budget", lambda b, _: ensure_budget(p, b)),
        ("root_trie", lambda b, _: root_trie(p, b) is root_trie(p)),
        ("rooted_intervals", lambda b, _: list(rooted_intervals(p, b))),
        ("rooted_cover_relations", lambda b, _: list(rooted_cover_relations(p, b))),
        ("CELabeling.from_chain_table", lambda b, _: shellab.labeling_to_json(
            shellab.CELabeling.from_chain_table(p, chain_table, budget=b))),
        ("labeling_from_json", lambda b, _: shellab.labeling_to_json(
            shellab.labeling_from_json(p, rel_json, budget=b))),
        ("load_labeling", lambda b, t: shellab.labeling_to_json(
            load_labeling(p, write(t, "lab.json", rel_json), budget=b))),
        ("classify", lambda b, _: shellab.classify(rel, p, budget=b)),
        ("descent_set", lambda b, _: shellab.descent_set(lab, p, budget=b)),
        ("FirstAtomSet.from_entries", lambda b, _: shellab.first_atom_set_to_json(
            shellab.FirstAtomSet.from_entries(p, {}, budget=b))),
        ("first_atom_set_from_json", lambda b, _: shellab.first_atom_set_to_json(
            shellab.first_atom_set_from_json(p, omega_json, budget=b))),
        ("load_first_atom_set", lambda b, t: shellab.first_atom_set_to_json(
            load_first_atom_set(p, write(t, "omega.json", omega_json), budget=b))),
        ("check_rfas", lambda b, _: shellab.check_rfas(p, omega, budget=b)),
        ("chain_order_dag", lambda b, _: shellab.chain_order_dag(p, omega, budget=b)),
        ("shelling_from_rfas", lambda b, _: shellab.shelling_from_rfas(p, omega, budget=b)),
        ("check_lc", lambda b, _: shellab.check_lc(p, omega, budget=b)),
        ("is_compatible", lambda b, _: shellab.is_compatible(lab, omega, p, budget=b)),
        ("compatible_labeling", lambda b, _: shellab.labeling_to_json(
            shellab.compatible_labeling(p, omega, budget=b))),
        ("rfas_from_tcl", lambda b, _: shellab.first_atom_set_to_json(
            shellab.rfas_from_tcl(p, lab, budget=b))),
        ("relabel_from_order", lambda b, _: shellab.labeling_to_json(
            shellab.relabel_from_order(p, chains, budget=b))),
        ("verify_label_bound", lambda b, _: shellab.verify_label_bound(p, chains, rel, budget=b)),
        ("verify_block_structure", lambda b, _: shellab.verify_block_structure(
            p, chains, rel, budget=b)),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _budgeted_calls()])
def test_a_budget_of_none_is_no_limit(name, tmp_path):
    # None answers as the default budget does, and a budget of 1 refuses fig2-P
    call = dict(_budgeted_calls())[name]
    assert call(None, tmp_path) == call(DEFAULT_ROOTED_COVER_BUDGET, tmp_path)
    with pytest.raises(BudgetExceededError):
        call(1, tmp_path)
