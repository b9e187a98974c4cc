import json
import random
import re

import pytest

from shellab import (
    BudgetExceededError,
    CELabeling,
    ChainOrderDag,
    FirstAtomSet,
    InvalidInputError,
    InvalidIntervalError,
    InvalidPosetError,
    MissingFirstAtomError,
    NoLcExtensionError,
    NotAnRfasError,
    NotTclError,
    build_poset,
    chain_order_dag,
    check_lc,
    check_rfas,
    classify,
    compatible_labeling,
    descent_set,
    first_atom_chain,
    first_atom_set_from_json,
    first_atom_set_to_json,
    is_compatible,
    is_shelling,
    linear_extensions,
    maximal_chains,
    order_complex,
    pseudo_descents,
    random_bounded_poset,
    relabel_from_order,
    restrict_first_atom_set,
    restriction_map,
    rfas_from_tcl,
    shelling_from_rfas,
)
from shellab.chains import root_trie
from shellab.labeling import lex_order_max_chains, load_labeling
from shellab.poset import load_poset
from shellab.rfas import RfasReport, RfasViolation, load_first_atom_set
from conftest import (
    _check_lc_literal,
    _check_rfas_literal,
    _rfas_from_tcl_rebuild,
    _sandwich_literal,
    shuffled_boolean_lattice,
    string_root_case,
    tie_case,
)


# -- first atom chains and pseudo descents -------------------------------

def test_first_atom_chain_single_chain(chain3):
    omega = FirstAtomSet.from_entries(chain3)
    assert first_atom_chain(omega, ("0hat",), "0hat", "1hat") == (
        "0hat", "m1", "m2", "1hat"
    )


def test_first_atom_chain_fig8_leftmost_default(fig8):
    omega = fig8.first_atom_set("omega")
    chain = first_atom_chain(omega, ("0hat",), "0hat", "1hat")
    assert chain == ("0hat", "a", "d", "r", "1hat")


def test_first_atom_chain_fig5_collection_c(fig5p):
    omega = fig5p.first_atom_set("C")
    assert first_atom_chain(omega, ("x",), "x", "y") == ("x", "ap", "b", "y")


def test_pseudo_descents_of_first_atom_chain_empty(fig8):
    omega = fig8.first_atom_set("omega")
    fac = first_atom_chain(omega, ("0hat",), "0hat", "1hat")
    assert pseudo_descents(omega, fac) == []


def test_pseudo_descents_nonempty_off_first_chain(fig8):
    omega = fig8.first_atom_set("omega")
    fac = first_atom_chain(omega, ("0hat",), "0hat", "1hat")
    for m in maximal_chains(fig8.poset):
        if m != fac:
            assert pseudo_descents(omega, m)


def test_pseudo_descent_single_chain(chain3):
    omega = FirstAtomSet.from_entries(chain3)
    assert pseudo_descents(omega, ("0hat", "m1", "m2", "1hat")) == []


@pytest.mark.parametrize("root", [None, ("0hat",)])
def test_pseudo_descents_of_the_empty_chain(fig8, root):
    # the error of a chain that does not start at bottom, not an IndexError
    with pytest.raises(ValueError, match="does not start at bottom"):
        pseudo_descents(fig8.first_atom_set("omega"), (), root=root)


# -- validation -----------------------------------------------------------

def test_fig5p_collection_c_fails_backward(fig5p):
    report = check_rfas(fig5p.poset, fig5p.first_atom_set("C"))
    assert not report.ok
    directions = {v.direction for v in report.violations if v.condition == "i"}
    assert "backward" in directions


def test_fig5p_collection_cprime_fails_forward(fig5p):
    report = check_rfas(fig5p.poset, fig5p.first_atom_set("Cprime"))
    assert not report.ok
    directions = {v.direction for v in report.violations if v.condition == "i"}
    assert "forward" in directions


def test_fig5q_omega_fails_only_condition_ii(fig5q):
    report = check_rfas(fig5q.poset, fig5q.first_atom_set("omega"))
    assert not report.ok
    assert all(v.condition == "ii" for v in report.violations)


def test_fig8_omega_is_valid(fig8):
    assert check_rfas(fig8.poset, fig8.first_atom_set("omega")).ok


def test_literal_walk_reading_rejects_fig8(fig8):
    # under the one-step reading of the walk-back condition, nothing
    # nontrivial validates
    report = check_rfas(fig8.poset, fig8.first_atom_set("omega"), literal_ii=True)
    assert not report.ok
    assert all(v.condition == "ii" for v in report.violations)


def test_unique_atom_intervals_autofilled(chain3):
    omega = FirstAtomSet.from_entries(chain3, default=None)
    assert omega.first_atom(("0hat",), "0hat", "1hat") == "m1"


def test_first_atom_default_is_leftmost_or_null(fig1):
    p = fig1.poset
    leftmost = first_atom_set_from_json(p, {"first_atoms": []})
    assert first_atom_set_from_json(
        p, {"first_atoms": [], "default": "leftmost"}).table == leftmost.table
    with pytest.raises(MissingFirstAtomError, match="no entry for rooted interval"):
        first_atom_set_from_json(p, {"first_atoms": [], "default": None})
    # a misspelt default used to be read as null, and failed as above
    for bad in ("leftmst", ["x"], {}, False):
        with pytest.raises(InvalidInputError, match='"default" must be "leftmost" or null'):
            first_atom_set_from_json(p, {"first_atoms": [], "default": bad})


@pytest.mark.parametrize("content, message", [
    ("not json", "not JSON"), ("[1, 2]", "not a JSON object")])
def test_file_loaders_raise_input_errors(tmp_path, fig1, content, message):
    # json.JSONDecodeError, and AttributeError on a JSON list, used to
    # escape the labeling and first atom set loaders
    path = tmp_path / "input.json"
    path.write_text(content)
    for load in (load_labeling, load_first_atom_set):
        with pytest.raises(InvalidInputError, match=message):
            load(fig1.poset, path)
    with pytest.raises(InvalidPosetError, match=message):
        load_poset(path)


def test_first_atom_set_from_json_needs_an_object(fig1):
    for data in ([], "first_atoms", {"first_atoms": {}}):
        with pytest.raises(InvalidInputError, match='needs an object with a "first_atoms" list'):
            first_atom_set_from_json(fig1.poset, data)


def test_restriction_is_still_valid(fig8):
    p, omega = fig8.poset, fig8.first_atom_set("omega")
    for (r, x, y) in [(("0hat",), "0hat", "k"), (("0hat", "b"), "b", "1hat"),
                      (("0hat", "c"), "c", "1hat")]:
        sub, sub_omega = restrict_first_atom_set(p, omega, r, x, y)
        assert check_rfas(sub, sub_omega).ok


@pytest.mark.parametrize("x, y, message", [
    ("1hat", "0hat", "'1hat' is not below '0hat'"),
    ("0hat", "zz", "'zz' is not an element"),
])
def test_restriction_needs_an_interval(fig8, x, y, message):
    # not a bounded-poset error about the empty member set
    with pytest.raises(InvalidIntervalError, match=message):
        restrict_first_atom_set(fig8.poset, fig8.first_atom_set("omega"), ("0hat",), x, y)


# -- chain order ----------------------------------------------------------

def test_single_chain_dag_has_no_edges(chain3):
    omega = FirstAtomSet.from_entries(chain3)
    dag = chain_order_dag(chain3, omega)
    assert dag.edges == frozenset()


def test_dag_requires_valid_table(fig5p):
    with pytest.raises(NotAnRfasError):
        chain_order_dag(fig5p.poset, fig5p.first_atom_set("C"))


def test_fig8_chain_order_path(fig8):
    dag = chain_order_dag(fig8.poset, fig8.first_atom_set("omega"))
    path = [
        ("0hat", "c", "i", "k", "1hat"),
        ("0hat", "c", "i", "j", "1hat"),
        ("0hat", "b", "i", "j", "1hat"),
        ("0hat", "b", "d", "j", "1hat"),
    ]
    for m, m2 in zip(path, path[1:]):
        assert dag.precedes(m, m2)


def test_fig8_dag_antisymmetric_unique_source(fig8):
    omega = fig8.first_atom_set("omega")
    dag = chain_order_dag(fig8.poset, omega)
    assert dag.is_antisymmetric()
    mins = dag.minimal_indices()
    assert len(mins) == 1
    assert dag.chains[mins[0]] == first_atom_chain(omega, ("0hat",), "0hat", "1hat")


def test_linear_extensions_of_antichain():
    # synthetic dag with no relations: every permutation is an extension
    from shellab import ChainOrderDag

    dag = ChainOrderDag((("0hat", "a", "1hat"), ("0hat", "b", "1hat"),
                         ("0hat", "c", "1hat")), frozenset())
    assert len(list(linear_extensions(dag))) == 6


def test_linear_extensions_counts():
    p = build_poset(
        ["0hat", "a", "b", "c", "1hat"],
        [("0hat", "a"), ("0hat", "b"), ("0hat", "c"),
         ("a", "1hat"), ("b", "1hat"), ("c", "1hat")],
    )
    omega = FirstAtomSet.from_entries(
        p,
        {(("0hat",), "0hat", "1hat"): "a",
         (None, "a", "1hat"): "1hat"},
    )
    # not an antichain: the two non-first chains each point back to the
    # first atom chain, which therefore comes first in every extension
    dag = chain_order_dag(p, omega)
    exts = list(linear_extensions(dag))
    assert all(ext[0] == ("0hat", "a", "1hat") for ext in exts)
    assert len(exts) == 2


def test_linear_extensions_total_order(chain3):
    omega = FirstAtomSet.from_entries(chain3)
    assert len(list(linear_extensions(chain_order_dag(chain3, omega)))) == 1


def test_extensions_start_with_first_atom_chain(fig8):
    from itertools import islice

    omega = fig8.first_atom_set("omega")
    dag = chain_order_dag(fig8.poset, omega)
    fac = first_atom_chain(omega, ("0hat",), "0hat", "1hat")
    for ext in islice(linear_extensions(dag), 50):
        assert ext[0] == fac


# -- compatibility ----------------------------------------------------------

def test_fig8_has_no_lc_extension(fig8):
    assert check_lc(fig8.poset, fig8.first_atom_set("omega")) is None


def test_fig8_compatible_labeling_raises(fig8):
    with pytest.raises(NoLcExtensionError):
        compatible_labeling(fig8.poset, fig8.first_atom_set("omega"))


def test_fig8_extensions_all_have_a_sandwich(fig8):
    from itertools import islice

    dag = chain_order_dag(fig8.poset, fig8.first_atom_set("omega"))
    assert all(_sandwich_literal(e) is not None for e in islice(linear_extensions(dag), 200))


def test_check_lc_answers_on_b6_past_a_memoless_search_budget():
    # a backtracker that does not remember dead placed sets exceeds 10,000
    # nodes here; the memo finds a sandwich-free extension in about 3,300
    p, lab = shuffled_boolean_lattice(6, 1)
    omega = rfas_from_tcl(p, lab)
    with pytest.raises(BudgetExceededError):
        _check_lc_literal(p, omega, node_budget=10_000)
    gamma = check_lc(p, omega, node_budget=10_000)
    assert len(gamma) == 720 and _sandwich_literal(gamma) is None
    assert sorted(gamma) == sorted(maximal_chains(p))
    assert is_compatible(relabel_from_order(p, gamma), omega, p)


def test_check_lc_budget_diagnostics(fig8):
    with pytest.raises(BudgetExceededError) as err:
        check_lc(fig8.poset, fig8.first_atom_set("omega"), node_budget=5)
    # the empty prefix is the first node and each placement one more
    assert err.value.diagnostics == {"nodes": 6, "budget": 5, "placed": 5}


def test_orderings_on_1500_atoms_do_not_recurse():
    atoms = [f"v{i}" for i in range(1500)]
    p = build_poset(["0hat", *atoms, "1hat"],
                    [("0hat", a) for a in atoms] + [(a, "1hat") for a in atoms])
    omega = FirstAtomSet.from_entries(p)
    first = next(linear_extensions(chain_order_dag(p, omega)))
    assert first == tuple(("0hat", a, "1hat") for a in atoms)
    assert check_lc(p, omega) == first


def test_single_chain_lc(chain3):
    omega = FirstAtomSet.from_entries(chain3)
    gamma = check_lc(chain3, omega)
    assert gamma == (("0hat", "m1", "m2", "1hat"),)
    lab = compatible_labeling(chain3, omega)
    assert is_compatible(lab, omega, chain3)


def test_length_one_poset_compatible_labeling():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    omega = FirstAtomSet.from_entries(p)
    lab = compatible_labeling(p, omega)
    assert lab.label(("0hat",), "0hat", "1hat") == 1
    assert is_compatible(lab, omega, p)


def test_fig8_no_random_labeling_is_compatible(fig8):
    import random

    from shellab.labeling import CELabeling

    p, omega = fig8.poset, fig8.first_atom_set("omega")
    rng = random.Random(11)
    for _ in range(12):
        lab = CELabeling.from_edges(
            p, {c: rng.randint(1, 6) for c in p.covers}
        )
        assert not is_compatible(lab, omega, p)


def test_rfas_from_tcl_rejects_non_tcl(fig1):
    p = fig1.poset
    constant = CELabeling.from_edges(p, {c: 1 for c in p.covers})
    # the interval that `check --kind tcl` names as its witness
    witness = classify(constant, p, kinds={"tcl"}).witnesses["tcl"]
    assert (witness["root"], witness["x"], witness["y"]) == (("0hat",), "0hat", "c")
    with pytest.raises(NotTclError, match=re.escape(
            "labeling is not a TCL-labeling: (('0hat',), '0hat', 'c') has 0 "
            "topologically ascending chains")):
        rfas_from_tcl(p, constant)


def test_rfas_from_tcl_degenerate_tie_case():
    # a labeling can satisfy the unique-ascending-chain condition without
    # its ascending chain being lexicographically first (see tie_case).
    # The chain-order rebuild removes the tie and with it unique
    # ascendance, so it refuses; the ascending chain read directly gives a
    # valid first atom set with a shelling and an LC extension.
    p, lab = tie_case()
    rep = classify(lab, p, kinds={"tcl", "cc"})
    assert rep.is_tcl and not rep.is_cc
    with pytest.raises(NotTclError):
        _rfas_from_tcl_rebuild(p, lab)
    omega = rfas_from_tcl(p, lab)
    assert omega.first_atom(("0hat",), "0hat", "1hat") == "v1"
    assert check_rfas(p, omega).ok
    order = shelling_from_rfas(p, omega)
    assert is_shelling(order_complex(p), [frozenset(c) for c in order]).ok
    assert check_lc(p, omega) is not None


def test_rfas_from_tcl_refuses_a_table_that_fails_check_rfas(fig2, monkeypatch):
    # condition (ii) is proven only when each ascending chain is lex-least,
    # so the table is checked before it is returned
    import shellab.rfas

    p = fig2.poset
    violation = RfasViolation("ii", None, ("0hat",), "0hat", "1hat", "a", "no walk")
    monkeypatch.setattr(shellab.rfas, "check_rfas",
                        lambda *args, **kwargs: RfasReport(False, [violation]))
    with pytest.raises(NotAnRfasError, match="not an RFAS: RfasViolation"):
        rfas_from_tcl(p, fig2.labeling("bold"))


def _tcl_labelings(p, rng):
    """Labelings of p to try: small-alphabet edge and chain-edge labels, and
    the relabeling of a shuffled chain order; only TCL-labelings are kept."""
    trie = root_trie(p, None)
    chains = list(maximal_chains(p))
    rng.shuffle(chains)
    for lab in (CELabeling.from_edges(p, {c: rng.randint(1, 2) for c in p.covers}),
                CELabeling._from_nodes(p, [None] + [rng.randint(1, 2) for _ in trie.elem[1:]]),
                relabel_from_order(p, chains)):
        if classify(lab, p, kinds={"tcl"}).is_tcl:
            yield lab


def test_rfas_from_tcl_matches_the_rebuild_oracle():
    # sparse random posets of up to 10 elements, where tied label sequences
    # are common enough that the rebuild refuses often
    refused = 0
    for seed in range(600):
        rng = random.Random(seed)
        p = random_bounded_poset(seed, rng.randint(5, 10), rng.uniform(0, 0.3))
        for lab in _tcl_labelings(p, rng):
            omega = rfas_from_tcl(p, lab)
            try:
                assert _rfas_from_tcl_rebuild(p, lab).table == omega.table
            except NotTclError:
                refused += 1
            report = check_rfas(p, omega)
            assert report.ok and report == _check_rfas_literal(p, omega)
            descents = descent_set(lab, p)
            for m in maximal_chains(p):
                assert pseudo_descents(omega, m) == [
                    m[i:i + 3] for i in range(len(m) - 2)
                    if (m[:i + 1], *m[i:i + 3]) in descents]
    assert refused >= 50


def test_rfas_from_tcl_chain_poset(chain3):
    from shellab.labeling import CELabeling

    lab = CELabeling.from_edges(
        chain3, {("0hat", "m1"): 2, ("m1", "m2"): 9, ("m2", "1hat"): 1}
    )
    omega = rfas_from_tcl(chain3, lab)
    assert check_rfas(chain3, omega).ok


@pytest.mark.parametrize("name,labkey", [("fig2-P", "bold"), ("fig3-Q", "left")])
def test_rfas_from_tcl_pipeline(name, labkey):
    from shellab import corpus

    ex = corpus.load_named(name)
    p, lab = ex.poset, ex.labeling(labkey)
    omega = rfas_from_tcl(p, lab)
    assert check_rfas(p, omega).ok
    gamma = check_lc(p, omega)
    assert gamma is not None
    lab2 = compatible_labeling(p, omega)
    assert classify(lab2, p, kinds={"tcl"}).is_tcl
    assert is_compatible(lab2, omega, p)


def test_round_trip_descents_match_pseudo_descents(fig2):
    # designated-atom violations along maximal chains sit exactly where the
    # rebuilt labeling has topological descents
    p, bold = fig2.poset, fig2.labeling("bold")
    omega = rfas_from_tcl(p, bold)
    relabeled = relabel_from_order(p, lex_order_max_chains(bold, p))
    descents = descent_set(relabeled, p)
    for m in maximal_chains(p):
        pd = set(pseudo_descents(omega, m))
        td = set()
        for i in range(len(m) - 2):
            r = m[: i + 1]
            if (r, m[i], m[i + 1], m[i + 2]) in descents:
                td.add((m[i], m[i + 1], m[i + 2]))
        assert pd == td


def test_shelling_from_rfas(fig2):
    p = fig2.poset
    omega = rfas_from_tcl(p, fig2.labeling("bold"))
    order = shelling_from_rfas(p, omega)
    k = order_complex(p)
    facets = [frozenset(c) for c in order]
    assert is_shelling(k, facets).ok
    rmap = restriction_map(k, facets)
    for c, f in zip(order, facets):
        mids = frozenset(y for (_, y, _) in pseudo_descents(omega, c))
        assert rmap[f] == mids


def test_first_atom_set_json_roundtrip(fig8):
    p, omega = fig8.poset, fig8.first_atom_set("omega")
    data = json.loads(json.dumps(first_atom_set_to_json(omega)))
    back = first_atom_set_from_json(p, data)
    assert back.table == omega.table


def test_cyclic_chain_order_is_not_an_rfas():
    from shellab import ChainOrderDag

    dag = ChainOrderDag((("0hat", "a", "1hat"), ("0hat", "b", "1hat")),
                        frozenset({(0, 1), (1, 0)}))
    with pytest.raises(NotAnRfasError):
        dag.closure()


def test_is_antisymmetric_is_false_exactly_on_a_cycle():
    chains = (("0hat", "a", "1hat"), ("0hat", "b", "1hat"))
    assert not ChainOrderDag(chains, frozenset({(0, 1), (1, 0)})).is_antisymmetric()
    assert ChainOrderDag(chains, frozenset({(0, 0)})).is_antisymmetric()
    assert ChainOrderDag(chains, frozenset({(0, 1)})).is_antisymmetric()


def test_chain_order_dag_equality_ignores_its_closure_cache():
    from shellab import ChainOrderDag

    def make():
        return ChainOrderDag((("0hat", "a", "1hat"), ("0hat", "b", "1hat")),
                             frozenset({(0, 1)}))

    a, b = make(), make()
    assert a == b
    a.closure()
    _ = a.preds
    assert a == b and b == a
    assert a != ChainOrderDag(a.chains, frozenset())


def test_first_atom_root_must_be_a_list_or_null():
    p = string_root_case()[0]
    entry = {"x": "0", "y": "c", "atom": "b"}
    with pytest.raises(InvalidInputError, match='has a "root" that is not a list'):
        first_atom_set_from_json(p, {"first_atoms": [{**entry, "root": "0"}]})
    for root in (["0"], None):
        omega = first_atom_set_from_json(p, {"first_atoms": [{**entry, "root": root}]})
        assert omega.first_atom(("0",), "0", "c") == "b"


@pytest.mark.parametrize("root", [None, ("0", "a", "c")])
def test_entry_not_strictly_below_is_an_interval_error(root):
    # a root-less entry used to fail first on c's two roots
    with pytest.raises(InvalidIntervalError, match="'c' is not strictly below 'a'"):
        FirstAtomSet.from_entries(string_root_case()[0], {(root, "c", "a"): "a"})


def test_first_bad_entry_in_file_order_is_reported(fig1):
    # the first entry's y is not above x; the second names a non-atom.  Each
    # entry is checked as it is read, so the first one is reported.
    entries = {(("0hat", "a"), "a", "b"): "c", (("0hat",), "0hat", "1hat"): "1hat"}
    with pytest.raises(InvalidIntervalError, match="'a' is not strictly below 'b'"):
        FirstAtomSet.from_entries(fig1.poset, entries)
    with pytest.raises(MissingFirstAtomError, match="'1hat' is not an atom of"):
        FirstAtomSet.from_entries(fig1.poset, dict(reversed(entries.items())))
