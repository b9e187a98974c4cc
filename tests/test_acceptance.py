"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and then asserts that every sub-check held.
"""

import random
from itertools import islice


from shellab import (
    CELabeling,
    NoLcExtensionError,
    brute_force_shellable,
    chain_order_dag,
    check_lc,
    check_rfas,
    classify,
    compatible_labeling,
    corpus,
    descending_chains,
    descent_set,
    dual,
    find_grao,
    find_rao,
    first_atom_chain,
    homotopy_report,
    interval_chains,
    is_compatible,
    is_graded,
    is_shelling,
    label_sequence,
    lex_order_max_chains,
    linear_extensions,
    maximal_chains,
    order_complex,
    ordinal_sum,
    pseudo_descents,
    random_bounded_poset,
    rao_pair_obstructions,
    relabel_from_order,
    restriction_map,
    rfas_from_tcl,
    rooted_intervals,
    verify_block_structure,
    verify_label_bound,
)
from shellab.chains import roots
from conftest import _is_shelling_literal, bfs_reachable, shelling_orders_by_exhaustion


def _criterion(number, description, checks):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{status}] {description}"
    if failed:
        line += f" -- failing sub-checks: {failed}"
    print(line)
    assert not failed, line


def _dual_edge_labeling(poset, lab):
    return CELabeling.from_edges(
        dual(poset), {(b, a): lab.label(roots(poset, a)[0], a, b) for (a, b) in poset.covers}
    )


def test_criterion_01_fig1_triple_verdict():
    ex = corpus.load_named("fig1")
    p = ex.poset
    checks = []
    rep = classify(ex.labeling("left"), p)
    for kind in ("el", "cl", "cc", "tcl"):
        checks.append((f"left.{kind}", rep.flag(kind) is True))
    rep = classify(ex.labeling("middle"), p)
    checks.append(("middle.cl", rep.is_cl is True))
    checks.append(("middle.el", rep.is_el is False))
    rep = classify(ex.labeling("right"), p)
    checks.append(("right.cc", rep.is_cc is True))
    checks.append(("right.cl", rep.is_cl is False))
    checks.append(("right.el", rep.is_el is False))
    orders = [tuple(lex_order_max_chains(ex.labeling(k), p))
              for k in ("left", "middle", "right")]
    checks.append(("orders-pairwise-distinct", len(set(orders)) == 3))
    checks.append(("four-maximal-chains", len(maximal_chains(p)) == 4))
    _criterion(1, "fig1 labeling verdicts and induced orders", checks)


def test_criterion_02_fig2_labelings_and_shelling():
    ex = corpus.load_named("fig2-P")
    p, bold = ex.poset, ex.labeling("bold")
    checks = []
    rep = classify(bold, p, kinds={"ec", "cc", "tcl"})
    checks.append(("bold.ec", rep.is_ec is True))
    checks.append(("bold.cc", rep.is_cc is True))
    checks.append(("bold.tcl", rep.is_tcl is True))
    drep = classify(_dual_edge_labeling(p, ex.labeling("parens")), dual(p), kinds={"el"})
    checks.append(("parens-dual.el", drep.is_el is True))
    order = lex_order_max_chains(bold, p)
    ok = is_shelling(order_complex(p), [frozenset(c) for c in order]).ok
    checks.append(("bold-lex-order-shells", ok))
    _criterion(2, "fig2-P EC labeling, dual EL labeling, lex shelling", checks)


def test_criterion_03_fig2_no_rao():
    ex = corpus.load_named("fig2-P")
    p = ex.poset
    checks = []
    checks.append(("find_rao-none", find_rao(p) is None))
    checks.append(("find_grao-none", find_grao(p) is None))
    obs = rao_pair_obstructions(p)
    atoms = p.atoms()
    covered = {frozenset((a, b)) for a, b, _ in obs}
    checks.append(("three-atom-pairs-witnessed",
                   covered == {frozenset(t) for t in
                               [(atoms[0], atoms[1]), (atoms[0], atoms[2]),
                                (atoms[1], atoms[2])]}))
    checks.append(("witnesses-are-rank-3",
                   all(y in p.coatoms() for _, _, y in obs)))
    _criterion(3, "fig2-P admits no recursive atom ordering", checks)


def test_criterion_04_fig2_descending_chains_interval():
    ex = corpus.load_named("fig2-P")
    p, bold = ex.poset, ex.labeling("bold")
    degree = {e: len(p.up[e]) + len(p.down[e]) for e in p.elements}
    x = next(e for e in p.coatoms() if degree[e] == 7)
    checks = []
    # Oracle from the raw covers: (0hat, x) has no chain of three elements,
    # so its order complex is the cover graph on the elements strictly
    # between 0hat and x, and chi = V - E.
    inner = {e for e in p.elements
             if e not in (p.bottom, x) and x in bfs_reachable(p.covers, e)}
    edges = [(a, b) for a, b in p.covers if a in inner and b in inner]
    checks.append(("open-interval-is-a-graph",
                   not {b for _, b in edges} & {a for a, _ in edges}))
    chi = len(inner) - len(edges)
    # 9 vertices (3 atoms, 6 rank-2 elements); criterion 05 puts each atom
    # under >= 4 rank-2 elements (8 vertices above it, at most 4 coatoms),
    # so E >= 12 and chi <= -3.  The fixture has E == 12.
    checks.append((f"euler-characteristic-minus-three(got {chi})", chi == -3))
    k = order_complex(p, interval=(p.bottom, x))
    checks.append((f"order-complex-euler-agrees(got {k.euler_characteristic()})",
                   k.euler_characteristic() == chi))
    chains = descending_chains(p, bold, p.bottom, x)
    seqs = sorted(label_sequence(bold, (p.bottom,), c) for c in chains)
    checks.append((f"four-descending-chains(got {seqs})",
                   seqs == [(1, 6, 1), (1, 7, 1), (1, 9, 1), (1, 11, 1)]))
    checks.append((f"descending-count-is-1-minus-chi(got {len(chains)})",
                   len(chains) == 1 - chi))
    shelling = brute_force_shellable(k, max_facets=len(k.facets))
    rep = homotopy_report(k, shelling)
    checks.append((f"wedge-of-1-minus-chi-one-spheres(got {rep.wedge_counts})",
                   rep.wedge_counts == {1: 1 - chi}))
    _criterion(4, "fig2-P open lower interval of the degree-7 coatom", checks)


def test_criterion_05_fig4_complexes():
    ex = corpus.load_named("fig2-P")
    p = ex.poset
    checks = []
    for atom in p.atoms():
        k = order_complex(p, interval=(atom, "1hat"))
        checks.append((f"{atom}.vertices", len(k.vertices) == 8))
        checks.append((f"{atom}.edges", len(k.facets) == 8
                       and all(len(f) == 2 for f in k.facets)))
        checks.append((f"{atom}.euler", k.euler_characteristic() == 0))
        checks.append((f"{atom}.connected", k.is_connected()))
        order = brute_force_shellable(k)
        checks.append((f"{atom}.shellable", order is not None))
        if order is not None:
            rep = homotopy_report(k, order)
            checks.append((f"{atom}.one-sphere", rep.wedge_counts == {1: 1}))
        degrees = k.vertex_degrees()
        checks.append((f"{atom}.degree-not-all-2",
                       any(d != 2 for d in degrees.values())))
    _criterion(5, "fig2-P upper order complexes of the atoms", checks)


def test_criterion_06_fig3_verdicts():
    ex = corpus.load_named("fig3-Q")
    q = ex.poset
    checks = [("nongraded", not is_graded(q))]
    rep = classify(ex.labeling("left"), q, kinds={"ec", "cc", "tcl"})
    checks.append(("left.ec", rep.is_ec is True))
    checks.append(("left.cc", rep.is_cc is True))
    checks.append(("left.tcl", rep.is_tcl is True))
    drep = classify(_dual_edge_labeling(q, ex.labeling("right")), dual(q), kinds={"el"})
    checks.append(("right-dual.el", drep.is_el is True))
    checks.append(("find_rao-none", find_rao(q) is None))
    obs = rao_pair_obstructions(q)
    checks.append((f"witnesses(got {obs})",
                   obs == [("c", "d", "y"), ("d", "c", "yp")]))
    order = lex_order_max_chains(ex.labeling("left"), q)
    k = order_complex(q)
    checks.append(("nonpure-complex", len({len(f) for f in k.facets}) > 1))
    checks.append(("left-lex-order-shells",
                   is_shelling(k, [frozenset(c) for c in order]).ok))
    _criterion(6, "fig3-Q labelings, obstructions and nonpure shelling", checks)


def test_criterion_07_relabel_round_trip():
    checks = []
    for name, key in (("fig2-P", "bold"), ("fig3-Q", "left")):
        ex = corpus.load_named(name)
        p, lab = ex.poset, ex.labeling(key)
        rebuilt = relabel_from_order(p, lex_order_max_chains(lab, p))
        checks.append((f"{name}.rebuilt-is-cc",
                       classify(rebuilt, p, kinds={"cc"}).is_cc is True))
        checks.append((f"{name}.descent-sets-equal",
                       descent_set(rebuilt, p) == descent_set(lab, p)))
    _criterion(7, "chain-order relabeling gives a CC-labeling with the same descents", checks)


def test_criterion_08_fig5_negative_examples():
    checks = []
    ex = corpus.load_named("fig5-P")
    rep_c = check_rfas(ex.poset, ex.first_atom_set("C"))
    checks.append(("C-not-ok", not rep_c.ok))
    checks.append(("C-backward-violation",
                   any(v.condition == "i" and v.direction == "backward"
                       for v in rep_c.violations)))
    rep_cp = check_rfas(ex.poset, ex.first_atom_set("Cprime"))
    checks.append(("Cprime-not-ok", not rep_cp.ok))
    checks.append(("Cprime-forward-violation",
                   any(v.condition == "i" and v.direction == "forward"
                       for v in rep_cp.violations)))
    exq = corpus.load_named("fig5-Q")
    rep_q = check_rfas(exq.poset, exq.first_atom_set("omega"))
    checks.append(("Q-not-ok", not rep_q.ok))
    checks.append(("Q-condition-i-ok",
                   not any(v.condition == "i" for v in rep_q.violations)))
    checks.append(("Q-condition-ii-violated",
                   any(v.condition == "ii" for v in rep_q.violations)))
    k = order_complex(exq.poset)
    checks.append(("Q-five-facets", len(k.facets) == 5))
    checks.append(("Q-brute-force-none", brute_force_shellable(k) is None))
    # literal oracle: all 120 orders fail
    checks.append(("Q-all-120-orders-fail",
                   shelling_orders_by_exhaustion(k.facets) == []))
    _criterion(8, "fig5 first-atom collections fail as recorded; fig5-Q unshellable", checks)


def test_criterion_09_fig8_lcrfas_failure():
    ex = corpus.load_named("fig8")
    p, omega = ex.poset, ex.first_atom_set("omega")
    checks = [("rfas-ok", check_rfas(p, omega).ok)]
    dag = chain_order_dag(p, omega)
    path = [
        ("0hat", "c", "i", "k", "1hat"),
        ("0hat", "c", "i", "j", "1hat"),
        ("0hat", "b", "i", "j", "1hat"),
        ("0hat", "b", "d", "j", "1hat"),
    ]
    checks.append(("closure-contains-path",
                   all(dag.precedes(m, m2) for m, m2 in zip(path, path[1:]))))
    checks.append(("check-lc-none", check_lc(p, omega) is None))
    raised = False
    try:
        compatible_labeling(p, omega)
    except NoLcExtensionError:
        raised = True
    checks.append(("compatible-labeling-raises", raised))
    _criterion(9, "fig8 first atom set admits no compatible labeling", checks)


def test_criterion_10_rfas_pipeline():
    checks = []
    for name, key in (("fig2-P", "bold"), ("fig3-Q", "left")):
        ex = corpus.load_named(name)
        p, lab = ex.poset, ex.labeling(key)
        omega = rfas_from_tcl(p, lab)
        checks.append((f"{name}.rfas-ok", check_rfas(p, omega).ok))
        dag = chain_order_dag(p, omega)
        checks.append((f"{name}.antisymmetric", dag.is_antisymmetric()))
        fac = first_atom_chain(omega, (p.bottom,), p.bottom, p.top)
        mins = dag.minimal_indices()
        checks.append((f"{name}.unique-minimum",
                       len(mins) == 1 and dag.chains[mins[0]] == fac))
        exts = list(islice(linear_extensions(dag), 1001))
        sample = exts[:100] if len(exts) > 1000 else exts
        k = order_complex(p)
        all_shell = True
        all_restrictions = True
        for ext in sample:
            facets = [frozenset(c) for c in ext]
            if not is_shelling(k, facets).ok:
                all_shell = False
                break
            rmap = restriction_map(k, facets)
            for c, f in zip(ext, facets):
                mids = frozenset(y for (_, y, _) in pseudo_descents(omega, c))
                if rmap[f] != mids:
                    all_restrictions = False
                    break
            if not all_restrictions:
                break
        checks.append((f"{name}.extensions-shell[{len(sample)}]", all_shell))
        checks.append((f"{name}.restrictions-match-pseudo-descents",
                       all_restrictions))
        compat = compatible_labeling(p, omega)
        checks.append((f"{name}.compatible-is-tcl",
                       classify(compat, p, kinds={"tcl"}).is_tcl is True))
        checks.append((f"{name}.is-compatible", is_compatible(compat, omega, p)))
    _criterion(10, "first atom sets from TCL labelings shell and relabel", checks)


def test_criterion_11_ordinal_sum():
    ex = corpus.load_named("fig2-P")
    p = ex.poset
    d = dual(p)
    s = ordinal_sum(p, d)
    bold, parens = ex.labeling("bold"), ex.labeling("parens")
    table = {}
    for a, b in p.covers:
        table[(a, b)] = bold.label(roots(p, a)[0], a, b)
    for a, b in d.covers:  # renamed with a '*' suffix inside the sum
        table[(a + "*", b + "*")] = parens.label(roots(p, b)[0], b, a)
    table[(p.top, d.bottom + "*")] = 1
    lab = CELabeling.from_edges(s, table)
    checks = [("sum-length-9", s.length() == 9), ("sum-graded", is_graded(s))]
    rep = classify(lab, s, kinds={"ec", "tcl"})
    checks.append(("sum.tcl", rep.is_tcl is True))
    checks.append(("sum.ec", rep.is_ec is True))
    checks.append(("sum.no-rao", find_rao(s) is None))
    checks.append(("dual-sum.no-rao", find_rao(dual(s)) is None))
    _criterion(11, "ordinal sum with its dual stays EC but not CL-shellable", checks)


def test_criterion_12_property_sweep():
    checks = []
    failures = []

    corpus_tcl = []
    for name, keys in (("fig1", ("left", "middle", "right")),
                       ("fig2-P", ("bold",)), ("fig3-Q", ("left",))):
        ex = corpus.load_named(name)
        for key in keys:
            corpus_tcl.append((f"{name}/{key}", ex.poset, ex.labeling(key)))

    for seed in range(1, 201):
        n = 2 + (seed % 9)
        prob = 0.15 + 0.1 * (seed % 7)
        p = random_bounded_poset(seed, n, prob)

        # (a) structural invariants
        for a in p.elements:
            reach = bfs_reachable(p.covers, a)
            for b in p.elements:
                if p.leq(a, b) != (b in reach):
                    failures.append(f"seed {seed}: leq mismatch")
                if p.leq(a, b) and p.leq(b, a) and a != b:
                    failures.append(f"seed {seed}: antisymmetry")
        if dual(dual(p)) != p:
            failures.append(f"seed {seed}: dual involution")
        if is_graded(p) != is_graded(dual(p)):
            failures.append(f"seed {seed}: gradedness under dual")
        for m in maximal_chains(p):
            for i, x in enumerate(m):
                if m[: i + 1] not in roots(p, x):
                    failures.append(f"seed {seed}: prefix not a root")

        rng = random.Random(10_000 + seed)

        # (b) + (c) labeling implications
        lab = CELabeling.from_edges(p, {c: rng.randint(1, 4) for c in p.covers})
        rep = classify(lab, p, kinds={"el", "cl", "ec", "cc", "tcl"})
        if rep.is_el and not rep.is_cl:
            failures.append(f"seed {seed}: el without cl")
        if rep.is_cl and not rep.is_tcl:
            failures.append(f"seed {seed}: cl without tcl")
        if rep.is_cc and not rep.is_tcl:
            failures.append(f"seed {seed}: cc without tcl")
        if rep.is_ec and not rep.is_cc:
            failures.append(f"seed {seed}: ec without cc")

        # (d) relabel verifiers on an arbitrary order
        chains = list(maximal_chains(p))
        rng.shuffle(chains)
        rebuilt = relabel_from_order(p, chains)
        if not verify_label_bound(p, chains, rebuilt):
            failures.append(f"seed {seed}: label bound")
        if not verify_block_structure(p, chains, rebuilt):
            failures.append(f"seed {seed}: block structure")

        # (f) the two shelling formulations agree
        k = order_complex(p)
        order = list(k.facets)
        rng.shuffle(order)
        for candidate in (list(k.facets), order):
            if is_shelling(k, candidate).ok != _is_shelling_literal(candidate):
                failures.append(f"seed {seed}: shelling formulations disagree")

    # (e) first-atom-set invariants on the corpus-seeded TCL instances
    for tag, p, lab in corpus_tcl:
        omega = rfas_from_tcl(p, lab)
        dag = chain_order_dag(p, omega)
        if not dag.is_antisymmetric():
            failures.append(f"{tag}: chain order not antisymmetric")
        fac = first_atom_chain(omega, (p.bottom,), p.bottom, p.top)
        mins = dag.minimal_indices()
        if len(mins) != 1 or dag.chains[mins[0]] != fac:
            failures.append(f"{tag}: minimum is not the first atom chain")
        src = dag.chains.index(fac)
        if dag.closure()[src] != set(range(len(dag.chains))):
            failures.append(f"{tag}: source does not reach every chain")
        for r, x, y in rooted_intervals(p):
            fac_i = first_atom_chain(omega, r, x, y)
            for c in interval_chains(p, x, y):
                pd = pseudo_descents(omega, c, root=r)
                if c == fac_i and pd:
                    failures.append(f"{tag}: first atom chain has a pseudo descent")
                if c != fac_i and not pd:
                    failures.append(f"{tag}: off chain without pseudo descent")

    checks.append((f"sweep-failures{failures[:5]}", not failures))
    checks.append(("corpus-tcl-instances", len(corpus_tcl) == 5))
    _criterion(12, "random poset property sweep (200 seeds)", checks)
