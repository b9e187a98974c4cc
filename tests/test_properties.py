"""Property-based checks on randomly generated bounded posets."""

import json
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from shellab import (
    BudgetExceededError,
    CELabeling,
    FirstAtomSet,
    OrderComplex,
    brute_force_shellable,
    build_poset,
    chain_order_dag,
    check_lc,
    check_rfas,
    classify,
    dual,
    find_grao,
    find_rao,
    interval_chains,
    is_graded,
    is_shelling,
    maximal_chains,
    order_complex,
    ordinal_sum,
    random_bounded_poset,
    linear_extensions,
    relabel_from_order,
    restriction_map,
    rfas_from_tcl,
    rooted_cover_count,
    shelling_from_rfas,
    verify_block_structure,
    verify_grao,
    verify_label_bound,
    verify_rao,
)
from shellab import corpus
from shellab.chains import roots
from shellab.errors import MissingFirstAtomError, NotAnRfasError, ShellabError
from shellab.labeling import KINDS
from conftest import (
    _canonical_paths,
    _chain_order_dag_literal,
    _check_lc_literal,
    _check_rfas_literal,
    _classify_literal,
    _first_atom_fill_literal,
    _is_shelling_literal,
    _linear_extensions_literal,
    _rao_literal,
    _relabel_literal,
    _rooted_intervals_literal,
    _sandwich_literal,
    _shelling_violation_literal,
    assert_readers_match_literal,
    bfs_reachable,
    brute_paths,
    brute_rooted_covers,
    shelling_orders_by_exhaustion,
    shuffled_boolean_lattice,
    shuffled_boolean_lattice,
)

SETTINGS = settings(max_examples=40, deadline=None)

posets = st.builds(
    random_bounded_poset,
    seed=st.integers(min_value=0, max_value=10 ** 6),
    n=st.integers(min_value=2, max_value=9),
    edge_probability=st.floats(min_value=0.0, max_value=1.0),
)


@SETTINGS
@given(posets)
def test_leq_is_reachability(p):
    # every order query agrees with the closures walked from the raw covers
    key = p.index.__getitem__
    reach = {a: bfs_reachable(p.covers, a) for a in p.elements}
    for a in p.elements:
        assert p.upset(a) == reach[a]
        assert p.downset(a) == {b for b in p.elements if a in reach[b]}
        for b in p.elements:
            assert p.leq(a, b) == (b in reach[a])
            assert p.interval(a, b) == tuple(sorted(
                (e for e in reach[a] if b in reach[e]), key=key))
            assert p.atoms_of(a, b) == tuple(
                v for v in p.elements if (a, v) in p.covers and b in reach[v])


@SETTINGS
@given(posets)
def test_antisymmetry(p):
    for a in p.elements:
        for b in p.elements:
            if p.leq(a, b) and p.leq(b, a):
                assert a == b


@SETTINGS
@given(posets)
def test_dual_involution_and_gradedness(p):
    assert dual(dual(p)) == p
    assert is_graded(p) == is_graded(dual(p))


def _assert_chains_match_path_dfs(p):
    """interval_chains in exact order, and the chain tables Poset builds at
    construction, against cover paths found by a plain DFS."""
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y):
                assert interval_chains(p, x, y) == tuple(_canonical_paths(p, x, y))
        assert p.path_count(x) == len(brute_paths(p.covers, p.bottom, x))
    lengths = {len(c) - 1 for c in brute_paths(p.covers, p.bottom, p.top)}
    assert p.length() == max(lengths)
    assert is_graded(p) == (len(lengths) == 1)


@SETTINGS
@given(posets)
def test_interval_chains_and_chain_tables_match_path_dfs(p):
    _assert_chains_match_path_dfs(p)


@pytest.mark.parametrize("name", corpus.names())
def test_corpus_interval_chains_and_chain_tables_match_path_dfs(name):
    _assert_chains_match_path_dfs(corpus.load_named(name).poset)


@SETTINGS
@given(posets)
def test_every_element_on_a_maximal_chain(p):
    covered = set()
    for m in maximal_chains(p):
        covered.update(m)
    assert covered == set(p.elements)


@SETTINGS
@given(posets)
def test_chain_prefixes_are_roots(p):
    for m in maximal_chains(p):
        for i, x in enumerate(m):
            assert m[: i + 1] in roots(p, x)


@SETTINGS
@given(posets)
def test_rooted_cover_count_formula(p):
    assert rooted_cover_count(p) == sum(
        len(brute_paths(p.covers, p.bottom, a)) for a, _ in p.covers
    )


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 5))
def test_random_labeling_implications(p, label_seed, spread):
    rng = random.Random(label_seed)
    lab = CELabeling.from_edges(p, {c: rng.randint(1, spread) for c in p.covers})
    rep = classify(lab, p, kinds={"el", "cl", "ec", "cc", "tcl"})
    if rep.is_el:
        assert rep.is_cl
    if rep.is_cl:
        assert rep.is_tcl
    if rep.is_ec:
        assert rep.is_cc
    if rep.is_cc:
        assert rep.is_tcl


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_relabel_verifiers_hold_for_random_orders(p, shuffle_seed):
    chains = list(maximal_chains(p))
    random.Random(shuffle_seed).shuffle(chains)
    lab = relabel_from_order(p, chains)
    assert verify_label_bound(p, chains, lab)
    assert verify_block_structure(p, chains, lab)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_shelling_formulations_agree(p, shuffle_seed):
    k = order_complex(p)
    order = list(k.facets)
    random.Random(shuffle_seed).shuffle(order)
    assert is_shelling(k, order).ok == _is_shelling_literal(order)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_shelling_kernel_matches_literal_oracles(p, shuffle_seed):
    k = order_complex(p)
    order = list(k.facets)
    random.Random(shuffle_seed).shuffle(order)
    result = is_shelling(k, order)
    assert result.first_violation == _shelling_violation_literal(order)
    if result.ok:
        assert restriction_map(k, order) == {
            f: frozenset(v for v in f if any(f - {v} <= e for e in order[:j]))
            for j, f in enumerate(order)
        }
    if len(k.facets) <= 6:
        assert ((brute_force_shellable(k) is None)
                == (shelling_orders_by_exhaustion(k.facets) == []))


def _open_intervals(p):
    """The pairs x < y whose open interval is nonempty."""
    return [(x, y) for x in p.elements for y in p.elements if len(p.interval(x, y)) > 2]


@SETTINGS
@given(posets)
def test_order_complex_facets_are_the_maximal_chains(p):
    # in order; the open-interval form strips both endpoints
    assert order_complex(p).facets == tuple(frozenset(c) for c in maximal_chains(p))
    for x, y in _open_intervals(p):
        assert order_complex(p, interval=(x, y)).facets == tuple(
            frozenset(c[1:-1]) for c in interval_chains(p, x, y))


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_shelling_kernel_matches_literal_oracle_on_open_intervals(p, shuffle_seed):
    rng = random.Random(shuffle_seed)
    for x, y in _open_intervals(p):
        k = order_complex(p, interval=(x, y))
        order = list(k.facets)
        rng.shuffle(order)
        assert is_shelling(k, order).first_violation == _shelling_violation_literal(order)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_is_shelling_reads_any_facet_form(p, shuffle_seed):
    # a facet of the order may be a frozenset, a chain tuple or a list, in
    # any vertex order and with a vertex named twice
    k = order_complex(p)
    chains = list(maximal_chains(p))
    random.Random(shuffle_seed).shuffle(chains)
    forms = ([frozenset(c) for c in chains], chains, [list(c) for c in chains],
             [c[::-1] for c in chains], [c + c[1:-1] for c in chains])
    result = is_shelling(k, forms[0])
    assert all(is_shelling(k, order) == result for order in forms[1:])
    if result.ok:
        rmap = restriction_map(k, forms[0])
        assert all(restriction_map(k, order) == rmap for order in forms[1:])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_cone_free_kernel_matches_literal_oracles_on_abstract_complexes(seed):
    # a nonpure antichain with 0-2 cone vertices added to every facet, each
    # facet named in shuffled vertex order, some with a vertex twice; the
    # kernel leaves the cone out, and restriction_map adds it back
    rng = random.Random(seed)
    facets = []
    for _ in range(rng.randint(1, 7)):
        f = frozenset(f"v{i}" for i in range(7) if rng.random() < 0.5)
        if f and not any(f <= g or g <= f for g in facets):
            facets.append(f)
    assume(facets)
    cone = frozenset(f"c{i}" for i in range(rng.randint(0, 2)))
    order = [f | cone for f in facets]
    k = OrderComplex(tuple(sorted(frozenset().union(*order))), order)
    rng.shuffle(order)
    named = [rng.sample(sorted(f), len(f)) for f in order]
    for vertices in named:
        if rng.random() < 0.3:
            vertices.append(rng.choice(vertices))
    result = is_shelling(k, iter(named))
    assert result.first_violation == _shelling_violation_literal(order)
    if result.ok:
        rmap = restriction_map(k, named)
        assert rmap == {f: frozenset(v for v in f if any(f - {v} <= e for e in order[:j]))
                        for j, f in enumerate(order)}
        assert not any(cone & r for r in rmap.values())


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6), st.integers(2, 3), st.booleans(),
       st.sets(st.sampled_from(KINDS), min_size=1))
def test_classify_matches_literal_oracle(p, label_seed, spread, rooted, mixed):
    # labels from 1..spread tie often, so every kind fails on some examples;
    # a mixed set still runs every check of each kind in it, also of a kind
    # that root dependence fails alone
    rng = random.Random(label_seed)
    if rooted:
        lab = CELabeling.from_chain_table(
            p, {rc: rng.randint(1, spread) for rc in brute_rooted_covers(p)})
    else:
        lab = CELabeling.from_edges(p, {c: rng.randint(1, spread) for c in p.covers})
    _assert_classify_matches_literal(lab, p, mixed)
    assert_readers_match_literal(lab, p, rng)


def _assert_classify_matches_literal(lab, p, *more):
    """classify against _classify_literal for each kind alone, all of them
    and the kind sets in more: verdicts, witnesses and the work counter."""
    # equality ignores the work counter, so it is compared on its own
    for kinds in [{kind} for kind in KINDS] + [KINDS, *more]:
        rep, literal = classify(lab, p, kinds=kinds), _classify_literal(lab, p, kinds)
        assert rep == literal
        assert rep.rooted_intervals == literal.rooted_intervals


@pytest.mark.parametrize("seed, n", [(75, 7), (137, 8), (140, 7)])
def test_self_consistency_witness_matches_literal_oracle(seed, n):
    # TCL labelings that are not self-consistent are rare among random
    # examples; these seeds give one below a non-bottom root (75) and two
    # whose witness has y != y' (137, 140)
    p = random_bounded_poset(seed, n, 0.5)
    rng = random.Random(seed)
    lab = CELabeling.from_edges(p, {c: rng.randint(1, 3) for c in p.covers})
    rep = classify(lab, p, kinds={"tcl", "self-consistent"})
    assert rep.is_tcl and not rep.is_self_consistent
    assert rep == _classify_literal(lab, p, {"tcl", "self-consistent"})
    # only two atoms with one label can fail it, the pairs compared per y
    w = rep.witnesses["self-consistent"]
    assert lab.label(w["root"], w["x"], w["atom_first"]) == lab.label(
        w["root"], w["x"], w["atom_other"])


def test_root_dependent_self_consistency_witness_matches_literal_oracle():
    # a chain-edge labeling decided on the RootTrie's nodes, whose witness
    # lies below a root other than (0hat,) and has y != y'
    p = random_bounded_poset(218, 8, 0.5)
    rng = random.Random(218)
    lab = CELabeling.from_chain_table(p, {rc: rng.randint(1, 3) for rc in brute_rooted_covers(p)})
    rep = classify(lab, p, kinds={"tcl", "self-consistent"})
    assert not lab.is_root_independent() and rep.is_tcl and not rep.is_self_consistent
    w = rep.witnesses["self-consistent"]
    assert len(w["root"]) > 1 and w["y"] != w["y2"]
    assert lab.label(w["root"], w["x"], w["atom_first"]) == lab.label(
        w["root"], w["x"], w["atom_other"])
    assert rep == _classify_literal(lab, p, {"tcl", "self-consistent"})


@pytest.mark.parametrize("seed", [0, 1])
def test_cc_with_every_label_equal_stops_at_its_first_failure(seed):
    # every pair of chains of a rank-two interval has one label sequence, so
    # CC fails at [0hat, y] for the first rank-two y; the literal oracle
    # counts the rooted intervals up to it
    p, _ = shuffled_boolean_lattice(5, seed)
    lab = CELabeling.from_edges(p, {c: 1 for c in p.covers})
    rep, literal = classify(lab, p, kinds={"cc"}), _classify_literal(lab, p, {"cc"})
    assert not rep.is_cc and rep == literal
    assert rep.rooted_intervals == literal.rooted_intervals == 1 + len(p.atoms())


def _chain(n, name):
    elements = [f"{name}{i}" for i in range(n)]
    return build_poset(elements, list(zip(elements, elements[1:])))


# a random poset with a chain below it, above it or both: [0hat, y] is one
# chain for each y of a chain below, and the fork-free stretch of a chain
# above starts over a fork
chain_sums = st.builds(
    lambda below, p, above: reduce(ordinal_sum, [q for q in (below, p, above) if q]),
    st.one_of(st.none(), st.integers(1, 3).map(lambda n: _chain(n, "b"))),
    posets.filter(lambda p: len(p.elements) <= 7),
    st.one_of(st.none(), st.integers(1, 3).map(lambda n: _chain(n, "t"))),
).filter(lambda p: p.bottom == "b0" or p.top[0] == "t")


@SETTINGS
@given(chain_sums, st.integers(min_value=0, max_value=10 ** 6), st.booleans())
def test_classify_on_chains_and_forks_matches_literal_oracle(p, label_seed, rooted):
    # labels from 1..4, so the fork-free tops meet descents and ties
    rng = random.Random(label_seed)
    if rooted:
        lab = CELabeling.from_chain_table(
            p, {rc: rng.randint(1, 4) for rc in brute_rooted_covers(p)})
    else:
        lab = CELabeling.from_edges(p, {c: rng.randint(1, 4) for c in p.covers})
    _assert_classify_matches_literal(lab, p)
    assert_readers_match_literal(lab, p, rng)


FORK_ABOVE_CHAIN = build_poset(
    ["0", "a", "b", "c", "d", "1"],
    [("0", "a"), ("a", "b"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")])


@pytest.mark.parametrize("labels", [(1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 6, 5), (6, 5, 4, 3, 2, 1),
                                    (1, 2, 3, 3, 4, 4)])
@pytest.mark.parametrize("rooted", [False, True])
def test_fork_above_a_chain_matches_literal_oracle(labels, rooted):
    # [0, y] is one chain for y in 0, a, b, c, d, so only the passes of those
    # tops record that 0 ascends to b and a to c and d, and [0, 1] reads it;
    # distinct labels make every [b, 1] hold one ascending chain
    p = FORK_ABOVE_CHAIN
    table = dict(zip(p.covers, labels))
    if rooted:
        lab = CELabeling.from_chain_table(p, {
            (r, u, v): table[(u, v)] for r, u, v in brute_rooted_covers(p)})
    else:
        lab = CELabeling.from_edges(p, table)
    _assert_classify_matches_literal(lab, p)
    assert classify(lab, p, kinds={"tcl"}).is_tcl == (len(set(labels)) == 6)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["leftmost", None]))
def test_from_entries_matches_literal_fill(p, seed, default):
    # random entries, some spoiled: a dropped root (fine when x has one
    # root), a root of another element, a y not above x, or a non-atom
    rng = random.Random(seed)
    intervals = list(_rooted_intervals_literal(p))
    names = list(p.elements) + ["nowhere"]
    entries = {}
    for r, x, y in rng.sample(intervals, min(len(intervals), rng.randrange(6))):
        atom = rng.choice(p.atoms_of(x, y))
        spoil = rng.randrange(8)
        if spoil == 0:
            r = None
        elif spoil == 1:
            r = rng.choice(intervals)[0]
        elif spoil == 2:
            y = rng.choice(names)
        elif spoil == 3:
            atom = rng.choice(names)
        entries[(r, x, y)] = atom

    def outcome(build):
        try:
            return build()
        except ShellabError as exc:
            return type(exc)

    def fill():
        omega = FirstAtomSet.from_entries(p, entries, default)
        return {(r, x, y): omega.first_atom(r, x, y) for r, x, y in intervals}

    assert outcome(fill) == outcome(lambda: _first_atom_fill_literal(p, entries, default))


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(["leftmost", None]))
def test_tables_hold_only_the_intervals_with_a_choice(p, seed, default):
    # valid entries for a random subset of rooted intervals, those with one
    # atom included; half the time every interval with a choice is named, so
    # that default=None builds too
    rng = random.Random(seed)
    intervals = list(_rooted_intervals_literal(p))
    choice = {(r, x, y) for r, x, y in intervals if len(p.atoms_of(x, y)) > 1}
    every = rng.random() < 0.5
    entries = {(r, x, y): rng.choice(p.atoms_of(x, y)) for r, x, y in intervals
               if every and (r, x, y) in choice or rng.random() < 0.3}
    try:
        omega = FirstAtomSet.from_entries(p, entries, default)
    except MissingFirstAtomError:
        with pytest.raises(MissingFirstAtomError):
            _first_atom_fill_literal(p, entries, default)
        return
    literal = _first_atom_fill_literal(p, entries, default)
    assert {k: omega.first_atom(*k) for k in intervals} == literal
    trie = omega.trie
    assert {(trie.chain(g), trie.elem[g], y) for g, y in omega.table} == choice
    # a dense table given to the constructor keeps the same entries
    dense = {(trie.resolve(r, (x,))[0], y): trie.resolve(r, (x, a))[1]
             for (r, x, y), a in literal.items()}
    assert FirstAtomSet(p, dense).table == omega.table
    assert check_rfas(p, omega) == _check_rfas_literal(p, omega)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_node_keyed_tables_match_literal_oracles(p, seed):
    rng = random.Random(seed)
    chains = list(maximal_chains(p))
    rng.shuffle(chains)
    lab = relabel_from_order(p, chains)
    literal = _relabel_literal(p, chains)
    assert all(lab.label(*k) == literal.label(*k) for k in brute_rooted_covers(p))
    # a random table is often not an RFAS, so it exercises the violations;
    # a table read off a TCL-labeling is one, so it exercises the chain order
    tables = [FirstAtomSet.from_entries(p, {
        (r, x, y): rng.choice(p.atoms_of(x, y)) for r, x, y in _rooted_intervals_literal(p)})]
    if classify(lab, p, kinds={"tcl"}).is_tcl:
        tables.append(rfas_from_tcl(p, lab))
    for omega in tables:
        report = check_rfas(p, omega)
        assert report == _check_rfas_literal(p, omega)
        assert check_rfas(p, omega, literal_ii=True) == _check_rfas_literal(p, omega, True)
        if report.ok:
            dag = chain_order_dag(p, omega)
            assert dag == _chain_order_dag_literal(p, omega)
            assert shelling_from_rfas(p, omega) == next(linear_extensions(dag))


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_check_rfas_is_the_one_verdict_on_a_table(p, seed):
    # a table check_rfas accepts has a chain order, and its first linear
    # extension shells; a table it refuses has none
    rng = random.Random(seed)
    omega = FirstAtomSet.from_entries(p, {
        (r, x, y): rng.choice(p.atoms_of(x, y)) for r, x, y in _rooted_intervals_literal(p)})
    try:
        chain_order_dag(p, omega)
    except NotAnRfasError:
        assert not check_rfas(p, omega).ok
    else:
        assert check_rfas(p, omega).ok
        assert is_shelling(order_complex(p), shelling_from_rfas(p, omega)).ok


@pytest.mark.parametrize("name", corpus.names())
def test_node_keyed_rfas_match_literal_oracles_on_corpus(name):
    # the corpus tables hold condition (ii) walks of more than one step
    # (fig8), which random posets of up to 9 elements do not reach, walks
    # that repeat an atom (fig5-P, fig5-Q), and a table that only the
    # one-step reading rejects (fig8)
    p = corpus.load_named(name).poset
    for omega in corpus.load_named(name).first_atom_sets.values():
        for literal_ii in (False, True):
            assert check_rfas(p, omega, literal_ii) == _check_rfas_literal(p, omega, literal_ii)
        if check_rfas(p, omega).ok:
            assert chain_order_dag(p, omega) == _chain_order_dag_literal(p, omega)


# The one ordering search (`shelling._orderings`) against literal oracles:
# permutations filtered by the definition, and a recursive backtracker
# without a memo

def _valid_tables(p, seed):
    """The leftmost table when it is valid, and the table read off the
    relabeling of a shuffled chain order when that is a TCL-labeling."""
    chains = list(maximal_chains(p))
    random.Random(seed).shuffle(chains)
    lab = relabel_from_order(p, chains)
    tables = [FirstAtomSet.from_entries(p)]
    if classify(lab, p, kinds={"tcl"}).is_tcl:
        tables.append(rfas_from_tcl(p, lab))
    return [omega for omega in tables if check_rfas(p, omega).ok]


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_check_lc_matches_literal_oracles(p, seed):
    assume(len(maximal_chains(p)) <= 8)
    for omega in _valid_tables(p, seed):
        found = check_lc(p, omega)
        assert found == _check_lc_literal(p, omega)
        # the pruning is exact, so the search finds the first extension
        # in lexicographic order that has no sandwich
        assert found == next((e for e in _linear_extensions_literal(chain_order_dag(p, omega))
                              if _sandwich_literal(e) is None), None)


@SETTINGS
@given(posets, st.integers(min_value=0, max_value=10 ** 6))
def test_linear_extensions_match_literal_oracle(p, seed):
    assume(len(maximal_chains(p)) <= 8)
    for omega in _valid_tables(p, seed):
        dag = chain_order_dag(p, omega)
        assert list(linear_extensions(dag)) == _linear_extensions_literal(dag)


@SETTINGS
@given(posets)
def test_brute_force_shellable_is_first_shelling_by_exhaustion(p):
    k = order_complex(p)
    assume(len(k.facets) <= 6)
    assert brute_force_shellable(k) == next(iter(shelling_orders_by_exhaustion(k.facets)), None)


@pytest.mark.parametrize("seed", [3, 4, 6])
def test_check_lc_matches_literal_oracle_where_it_backtracks(seed):
    # B_4 has 24 chains; the oracle exceeding 25 nodes shows a dead end
    p, lab = shuffled_boolean_lattice(4, seed)
    omega = rfas_from_tcl(p, lab)
    with pytest.raises(BudgetExceededError):
        _check_lc_literal(p, omega, node_budget=25)
    found = check_lc(p, omega)
    assert found == _check_lc_literal(p, omega)
    assert _sandwich_literal(found) is None


# RAO/GRAO cross-checks against brute-force shellability and each other, which
# do not go through the ordering rules that the searches and verifiers share

@SETTINGS
@given(posets)
def test_grao_implies_shellable(p):
    assume(len(order_complex(p).facets) <= 9)
    tree = find_grao(p)
    if tree is not None:
        assert verify_grao(p, tree)
        assert brute_force_shellable(order_complex(p)) is not None


@SETTINGS
@given(posets)
def test_graded_rao_implies_grao_and_shellable(p):
    assume(len(order_complex(p).facets) <= 9)
    tree = find_rao(p)
    if tree is not None:
        assert verify_rao(p, tree)
        if is_graded(p):
            assert find_grao(p) is not None
            assert brute_force_shellable(order_complex(p)) is not None


@SETTINGS
@given(st.builds(random_bounded_poset, seed=st.integers(min_value=0, max_value=10 ** 6),
                 n=st.integers(min_value=2, max_value=11),
                 edge_probability=st.floats(min_value=0.1, max_value=0.6)))
def test_rao_and_grao_certificates_match_literal_oracle(p):
    # byte-identical JSON, children in the same order; None where absent
    for generalized, find in ((False, find_rao), (True, find_grao)):
        found, literal = find(p), _rao_literal(p, generalized)
        assert json.dumps(found and found.to_json()) == json.dumps(literal and literal.to_json())
