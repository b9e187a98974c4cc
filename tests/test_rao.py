import json

import pytest

from shellab import (
    BudgetExceededError,
    MalformedCertificateError,
    RaoTree,
    brute_force_shellable,
    build_poset,
    dual,
    find_grao,
    find_rao,
    order_complex,
    ordinal_sum,
    random_bounded_poset,
    rao_pair_obstructions,
    verify_grao,
    verify_rao,
)


def _boolean_lattice_3():
    subsets = ["1", "2", "3", "12", "13", "23"]
    covers = [("0hat", s) for s in "123"] + [(s, "1hat") for s in ("12", "13", "23")]
    covers += [(a, b) for a in "123" for b in ("12", "13", "23") if a in b]
    return build_poset(["0hat", *subsets, "1hat"], covers)


def _swap_child_order(tree, atom):
    """The certificate with the atom order of one child reversed."""
    data = tree.to_json()
    entry = next(e for e in data["certificate"] if e["root"] == [tree.bottom, atom])
    entry["atom_order"].reverse()
    return RaoTree.from_json(data)


def test_edge_poset_trivial_rao():
    p = build_poset(["0hat", "1hat"], [("0hat", "1hat")])
    tree = find_rao(p)
    assert tree is not None
    assert verify_rao(p, tree)
    assert find_grao(p) is not None


def test_fig1_has_rao_and_grao(fig1):
    p = fig1.poset
    tree = find_rao(p)
    assert tree is not None
    assert verify_rao(p, tree)
    gtree = find_grao(p)
    assert gtree is not None
    assert verify_grao(p, gtree)


def test_rao_implies_grao_on_corpus(fig1, chain3, diamond):
    for p in (fig1.poset, chain3, diamond):
        if find_rao(p) is not None:
            assert find_grao(p) is not None


def test_fig2_no_rao_no_grao(fig2):
    assert find_rao(fig2.poset) is None
    assert find_grao(fig2.poset) is None


def test_fig3_no_rao(fig3):
    assert find_rao(fig3.poset) is None
    assert find_grao(fig3.poset) is None


def test_fig2_pair_obstructions(fig2):
    p = fig2.poset
    obs = rao_pair_obstructions(p)
    ordered_pairs = {(a, b) for a, b, _ in obs}
    atoms = p.atoms()
    assert ordered_pairs == {(a, b) for a in atoms for b in atoms if a != b}
    for a, b, y in obs:
        assert p.lt(a, y) and p.lt(b, y)
        assert not any(p.leq(z, y) and p.lt(a, z) for z in p.up[b])


def test_fig3_pair_obstructions(fig3):
    assert rao_pair_obstructions(fig3.poset) == [("c", "d", "y"), ("d", "c", "yp")]


def test_diamond_has_no_obstruction(diamond):
    assert rao_pair_obstructions(diamond) == []
    assert find_rao(diamond) is not None


def test_obstructions_imply_absence(fig2, fig3, fig1, diamond, chain3):
    # whenever every ordered atom pair is obstructed, the searches agree
    for p in (fig2.poset, fig3.poset, fig1.poset, diamond, chain3):
        obs = {(a, b) for a, b, _ in rao_pair_obstructions(p)}
        atoms = p.atoms()
        every_pair = {(a, b) for a in atoms for b in atoms if a != b}
        if obs >= every_pair and len(atoms) > 1:
            assert find_rao(p) is None
            assert find_grao(p) is None


def test_verify_rejects_pair_condition_violation(fig3):
    # neither atom of this poset can be followed by the other, so any
    # two-atom order fails the pair condition before children are consulted
    q = fig3.poset
    for order in (("c", "d"), ("d", "c")):
        assert not verify_rao(q, RaoTree("0hat", order, {}))
        assert not verify_grao(q, RaoTree("0hat", order, {}))


def test_verify_rejects_bad_shape(fig1):
    p = fig1.poset
    with pytest.raises(MalformedCertificateError):
        verify_rao(p, RaoTree("0hat", ("a",), {}))


def test_ordinal_sum_no_rao(fig2):
    p = fig2.poset
    s = ordinal_sum(p, dual(p))
    assert find_rao(s) is None
    assert find_rao(dual(s)) is None


def test_grao_condition_distinguishes(fig1):
    # chain posets have exactly one certificate shape
    p = build_poset(["0hat", "m", "1hat"], [("0hat", "m"), ("m", "1hat")])
    tree = find_rao(p)
    assert tree.atom_order == ("m",)
    assert tree.children["m"].atom_order == ("1hat",)


def test_verify_rejects_child_order_breaking_its_constraint():
    # the root order 1, 2, 3 is valid; in [2, 1hat] the atom 12 covers the
    # earlier atom 1, so it must come before 23, which the pair rule allows
    p = _boolean_lattice_3()
    tree = find_rao(p)
    assert tree.atom_order == ("1", "2", "3")
    assert tree.children["2"].atom_order == ("12", "23")
    assert verify_rao(p, tree)
    assert not verify_rao(p, _swap_child_order(tree, "2"))


def test_verify_grao_rejects_unmarked_first_atom():
    # in [2, 1hat] the atom 12 lies above the earlier atom 1 (marked), so the
    # unmarked 23 may not come first in [2, 1hat]
    p = _boolean_lattice_3()
    tree = find_grao(p)
    assert verify_grao(p, tree)
    assert not verify_grao(p, _swap_child_order(tree, "2"))


def _entries_literal(tree, root):
    """The certificate entries of `tree` by plain recursion: the node, then
    each child in atom order."""
    yield {"root": list(root), "atom_order": list(tree.atom_order)}
    for a in tree.atom_order:
        if a in tree.children:
            yield from _entries_literal(tree.children[a], root + (a,))


def test_certificate_json_lists_the_nodes_in_preorder():
    p = _boolean_lattice_3()
    for tree in (find_rao(p), find_grao(p)):
        data = tree.to_json()
        assert data == {"certificate": list(_entries_literal(tree, ("0hat",)))}
        assert data["certificate"][:3] == [
            {"root": ["0hat"], "atom_order": ["1", "2", "3"]},
            {"root": ["0hat", "1"], "atom_order": list(tree.children["1"].atom_order)},
            {"root": ["0hat", "1", tree.children["1"].atom_order[0]], "atom_order": ["1hat"]},
        ]
        assert RaoTree.from_json(json.loads(json.dumps(data))) == tree
        assert verify_rao(p, RaoTree.from_json(data)) == verify_rao(p, tree)


@pytest.mark.parametrize("data", [
    [], {}, {"certificate": []}, {"certificate": ["0hat"]},
    {"certificate": [{"root": ["0hat"]}]},
    {"certificate": [{"root": [], "atom_order": []}]},
    {"certificate": [{"root": ["0hat"], "atom_order": ["a"]}, {"root": ["a"], "atom_order": []}]},
    {"certificate": [{"root": ["0hat"], "atom_order": ["a"]},
                     {"root": ["0hat", "b"], "atom_order": []}]},
    {"certificate": [{"root": ["0hat"], "atom_order": ["a"]},
                     {"root": ["0hat", "a", "1hat"], "atom_order": []}]},
    {"certificate": [{"root": ["0hat"], "atom_order": ["a"]},
                     {"root": ["0hat", "a"], "atom_order": []},
                     {"root": ["0hat", "a"], "atom_order": []}]},
    {"certificate": [{"root": ["0hat"], "atom_order": ["a"]},
                     {"root": ["0hat", ["a"]], "atom_order": []}]},
], ids=["list", "no-key", "empty", "not-an-object", "no-order", "empty-root", "other-bottom",
        "not-an-atom", "skips-a-level", "repeated", "unhashable"])
def test_from_json_rejects_a_malformed_certificate(data):
    with pytest.raises(MalformedCertificateError):
        RaoTree.from_json(data)


def test_a_certificate_as_deep_as_a_long_chain_compares_prints_and_round_trips():
    # equality and repr recursed through the children, one level per element
    chain = [f"c{i}" for i in range(600)]
    p = build_poset(chain, list(zip(chain, chain[1:])))
    tree = find_rao(p)
    assert tree == find_rao(p)
    assert tree != find_rao(build_poset(chain[:-1], list(zip(chain, chain[1:-1]))))
    assert repr(tree) == "RaoTree(bottom='c0', atom_order=('c1',), children={'c1': ...})"
    data = tree.to_json()
    assert len(data["certificate"]) == 599
    assert data["certificate"][-1] == {"root": chain[:-1], "atom_order": [chain[-1]]}
    assert RaoTree.from_json(data) == tree


# nonpure posets on which the RAO search and verifier accept a certificate
# although the order complex has no shelling
_NOT_SHELLABLE = [(98, 9, 0.3), (148, 9, 0.3), (111, 8, 0.25)]


@pytest.mark.parametrize("seed, n, prob", _NOT_SHELLABLE)
def test_nonpure_repros_are_not_shellable(seed, n, prob):
    p = random_bounded_poset(seed, n, prob)
    assert brute_force_shellable(order_complex(p)) is None
    assert find_grao(p) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed, n, prob", _NOT_SHELLABLE)
def test_nonpure_repros_have_no_rao(seed, n, prob):
    assert find_rao(random_bounded_poset(seed, n, prob)) is None


def test_searches_keep_no_frame_per_element_or_atom():
    # the recursive search needed two frames per chain element and one
    # per placed atom, so both ended in RecursionError
    chain = [f"c{i}" for i in range(2000)]
    p = build_poset(chain, list(zip(chain, chain[1:])))
    node = tree = find_rao(p)
    for below, above in zip(chain, chain[1:-1]):
        assert (node.bottom, node.atom_order) == (below, (above,))
        node = node.children[above]
    assert (node.bottom, node.atom_order, node.children) == (chain[-2], (chain[-1],), {})
    assert verify_rao(p, tree)
    atoms = [f"v{i}" for i in range(1500)]
    p = build_poset(["0hat", *atoms, "1hat"],
                    [("0hat", a) for a in atoms] + [(a, "1hat") for a in atoms])
    for find, verify in ((find_rao, verify_rao), (find_grao, verify_grao)):
        tree = find(p)
        assert tree.atom_order == tuple(atoms)
        assert verify(p, tree)


def test_budget_counts_each_placement_once():
    # 0hat < a_i < b_i < 1hat: one node per interval plus one per placement,
    # and every placement at 0hat dead-ends at once; a search that replayed
    # its placements after each child would count them again
    n = 40
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    p = build_poset(["0hat", *a, *b, "1hat"],
                    [("0hat", x) for x in a] + list(zip(a, b)) + [(y, "1hat") for y in b])
    for find in (find_rao, find_grao):
        assert find(p, budget=3 * n + 1) is None
        with pytest.raises(BudgetExceededError) as err:
            find(p, budget=3 * n)
        assert err.value.diagnostics == {"nodes": 3 * n + 1, "budget": 3 * n}


def test_verify_tells_a_missing_child_from_a_child_stored_as_none():
    p = _boolean_lattice_3()
    for make, verify in ((find_rao, verify_rao), (find_grao, verify_grao)):
        tree = make(p)
        del tree.children["1"].children["12"]  # a leaf may be left out
        assert verify(p, tree)
        tree.children["1"].children["12"] = None
        with pytest.raises(MalformedCertificateError, match="node mismatch at '12'"):
            verify(p, tree)
        del tree.children["2"]
        with pytest.raises(MalformedCertificateError, match="node mismatch at '12'"):
            verify(p, tree)  # preorder: [1, 1hat] comes before the missing [2, 1hat]
        tree.children["1"].children["12"] = make(p).children["1"].children["12"]
        with pytest.raises(MalformedCertificateError, match="missing child certificate at '2'"):
            verify(p, tree)
