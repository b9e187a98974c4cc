"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's own enumeration code:
reachability is plain BFS on the cover digraph, chains come from a direct
path DFS, shellability of tiny complexes is settled by trying every facet
permutation, and labelings are classified by quantifying over tuple roots
and label sequences literally.
"""

import ast
import random
from itertools import permutations

import pytest

from shellab import (
    BudgetExceededError,
    CELabeling,
    ChainOrderDag,
    LabelingReport,
    RaoTree,
    build_poset,
    chain_order_dag,
    corpus,
    label_sequence,
)
from shellab.chains import DEFAULT_ROOTED_COVER_BUDGET, root_trie, rooted_interval_nodes
from shellab.errors import (
    AmbiguousOrderError,
    InvalidInputError,
    InvalidIntervalError,
    InvalidRootError,
    MissingFirstAtomError,
    NotAnRfasError,
    NotTclError,
)
from shellab.labeling import classify, descent_set, lex_order_max_chains
from shellab.rao import _Search
from shellab.relabel import relabel_from_order
from shellab.poset import poset_from_json
from shellab.rfas import (
    FirstAtomSet,
    RfasReport,
    RfasViolation,
    first_atom_set_from_json,
    is_compatible,
    rfas_from_tcl,
)
from shellab.shelling import descending_chains


# -- independent oracles -------------------------------------------------

def bfs_reachable(covers, start):
    """Elements reachable from start by walking covers upward (inclusive)."""
    adj = {}
    for a, b in covers:
        adj.setdefault(a, []).append(b)
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def brute_paths(covers, x, y):
    """All cover-paths from x to y, by direct DFS on the raw cover list."""
    adj = {}
    for a, b in covers:
        adj.setdefault(a, []).append(b)
    out = []

    def walk(path):
        v = path[-1]
        if v == y:
            out.append(tuple(path))
            return
        for w in adj.get(v, ()):
            walk(path + [w])

    walk([x])
    return out


def brute_rooted_covers(poset):
    """Triple loop oracle: (root, x, y) with x covered by y."""
    out = []
    for x, y in poset.covers:
        for r in brute_paths(poset.covers, poset.bottom, x):
            out.append((r, x, y))
    return out


def brute_rooted_intervals(poset):
    out = []
    for x in poset.elements:
        for y in poset.elements:
            if x != y and poset.leq(x, y):
                for r in brute_paths(poset.covers, poset.bottom, x):
                    out.append((r, x, y))
    return out


def shelling_orders_by_exhaustion(facets):
    """All facet orders passing the shelling condition, tried literally."""
    facets = [frozenset(f) for f in facets]
    good = []
    for perm in permutations(facets):
        if _is_shelling_literal(perm):
            good.append(perm)
    return good


def _shelling_violation_literal(order):
    """First (j, i) such that no k < j has F_i & F_j <= F_k & F_j with
    |F_k & F_j| = |F_j| - 1 (the pairwise-witness form), or None."""
    for j in range(1, len(order)):
        fj = order[j]
        big = [order[k] & fj for k in range(j) if len(order[k] & fj) == len(fj) - 1]
        for i in range(j):
            inter = order[i] & fj
            if not any(inter <= w for w in big):
                return (j, i)
    return None


def _is_shelling_literal(order):
    """The face-purity form: the maximal faces F_j shares with earlier facets
    all have dimension dim F_j - 1."""
    for j in range(1, len(order)):
        fj = order[j]
        shared = [order[i] & fj for i in range(j)]
        maximal = [s for s in shared if not any(s < t for t in shared)]
        if any(len(s) != len(fj) - 1 for s in maximal):
            return False
    return True


def brute_euler_characteristic(facets):
    """Unreduced Euler characteristic from scratch via subset enumeration."""
    from itertools import combinations

    faces = set()
    for f in facets:
        fs = sorted(f)
        for k in range(1, len(fs) + 1):
            faces.update(map(frozenset, combinations(fs, k)))
    return sum((-1) ** (len(face) - 1) for face in faces)


def _canonical_paths(poset, x, y):
    key = poset.index.__getitem__
    return sorted(brute_paths(poset.covers, x, y), key=lambda c: [key(e) for e in c])


def _is_ascent_literal(lab, poset, root, u, v, w):
    pair = (lab.label(root, u, v), lab.label(root + (v,), v, w))
    return all(pair < label_sequence(lab, root, c)
               for c in _canonical_paths(poset, u, w) if c != (u, v, w))


def _chain_is_ascending_literal(lab, poset, root, chain):
    r = root
    for i in range(len(chain) - 2):
        if not _is_ascent_literal(lab, poset, r, chain[i], chain[i + 1], chain[i + 2]):
            return False
        r = r + (chain[i + 1],)
    return True


def _classify_literal(lab, poset, kinds):
    """classify() by direct quantification: for every rooted interval
    (r, x, y) in canonical order, the chains of [x, y] from a path DFS and
    their label sequences with the root grown one cover at a time.  Its
    rooted_intervals is the count classify() must report."""
    kinds = set(kinds)
    key = poset.index.__getitem__
    report = LabelingReport()
    root_indep = all(
        len({lab.label(r, a, b) for r in _canonical_paths(poset, poset.bottom, a)}) == 1
        for a, b in poset.covers)
    # EL and EC fail on root dependence alone, so no interval is decided
    # when they are all that is asked
    decides = root_indep or not kinds <= {"el", "ec"}
    need_tcl = decides and bool(kinds & {"tcl", "cc", "ec", "self-consistent"})
    need_cc = decides and bool(kinds & {"cc", "ec"})
    need_cl = decides and bool(kinds & {"cl", "el"})
    tcl_ok, cc_ok, cl_ok = True, True, True
    per_root = []  # (r, x, above) for the self-consistency pass
    for x in poset.elements:
        above = sorted((y for y in bfs_reachable(poset.covers, x) if y != x), key=key)
        for i, r in enumerate(_canonical_paths(poset, poset.bottom, x)):
            per_root.append((r, x, above))
            for y in above:
                # the work counter: rooted intervals reached while a needed
                # kind still holds, one per [x, y] when the labels ignore roots
                if (i == 0 or not root_indep) and (
                        need_tcl and tcl_ok or need_cc and cc_ok or need_cl and cl_ok):
                    report.rooted_intervals += 1
                chains = _canonical_paths(poset, x, y)
                seqs = [label_sequence(lab, r, c) for c in chains]
                if need_tcl and tcl_ok:
                    ascending = [c for c in chains
                                 if _chain_is_ascending_literal(lab, poset, r, c)]
                    if len(ascending) != 1:
                        tcl_ok = False
                        report.witnesses["tcl"] = {
                            "root": r, "x": x, "y": y,
                            "ascending_chains": tuple(ascending)}
                if need_cc and cc_ok:
                    prefix = any(s != t and s == t[:len(s)] for s in seqs for t in seqs)
                    if len(set(seqs)) != len(seqs) or prefix:
                        cc_ok = False
                        report.witnesses["cc"] = {
                            "root": r, "x": x, "y": y,
                            "label_sequences": tuple(sorted(zip(seqs, chains)))}
                if need_cl and cl_ok:
                    increasing = [c for c, s in zip(chains, seqs)
                                  if all(a < b for a, b in zip(s, s[1:]))]
                    if not (len(increasing) == 1
                            and label_sequence(lab, r, increasing[0]) == min(seqs)):
                        cl_ok = False
                        report.witnesses["cl"] = {
                            "root": r, "x": x, "y": y,
                            "increasing_chains": tuple(increasing)}

    w = report.witnesses
    if "tcl" in kinds:
        report.is_tcl = tcl_ok
    if "cc" in kinds:
        report.is_cc = tcl_ok and cc_ok
        if not tcl_ok:
            w.setdefault("cc", w.get("tcl", {}))
    if "ec" in kinds:
        report.is_ec = tcl_ok and cc_ok and root_indep
        if not root_indep:
            w.setdefault("ec", {"root_independent": False})
        elif not (tcl_ok and cc_ok):
            w.setdefault("ec", w.get("cc", w.get("tcl", {})))
    if "cl" in kinds:
        report.is_cl = cl_ok
    if "el" in kinds:
        report.is_el = cl_ok and root_indep
        if not root_indep:
            w.setdefault("el", {"root_independent": False})
        elif not cl_ok:
            w.setdefault("el", w.get("cl", {}))
    if "self-consistent" in kinds:
        witness = ({"not_tcl": True} if not tcl_ok
                   else _self_consistency_witness(lab, poset, per_root))
        report.is_self_consistent = witness is None
        if witness is not None:
            w.setdefault("self-consistent", witness)
    return report


def _descent_set_literal(lab, poset):
    """descent_set() by direct quantification: every (r, u, v, w) with r a
    root of u and u < v < w covers, that _is_ascent_literal rejects."""
    out = set()
    for u, v in poset.covers:
        for w in poset.up[v]:
            for r in _canonical_paths(poset, poset.bottom, u):
                if not _is_ascent_literal(lab, poset, r, u, v, w):
                    out.add((r, u, v, w))
    return frozenset(out)


def _descending_chains_literal(lab, poset, root, x, y):
    """descending_chains() by direct quantification: the chains of [x, y]
    none of whose adjacent cover pairs _is_ascent_literal accepts, the root
    grown one cover at a time."""
    out = []
    for c in _canonical_paths(poset, x, y):
        r = tuple(root)
        for i in range(len(c) - 2):
            if _is_ascent_literal(lab, poset, r, c[i], c[i + 1], c[i + 2]):
                break
            r = r + (c[i + 1],)
        else:
            out.append(c)
    return out


def _is_compatible_literal(lab, omega, poset):
    """is_compatible() by direct quantification: in every rooted interval
    (r, x, y) some chain through the designated atom attains the least label
    sequence of [x, y]_r."""
    for r, x, y in _rooted_intervals_literal(poset):
        seqs = {c: label_sequence(lab, r, c) for c in _canonical_paths(poset, x, y)}
        best, atom = min(seqs.values()), omega.first_atom(r, x, y)
        if not any(s == best and c[1] == atom for c, s in seqs.items()):
            return False
    return True


def _lex_order_literal(lab, poset, tie_break=False):
    """lex_order_max_chains() by sorting the maximal chains of a path DFS on
    their label sequences, ties in canonical chain order."""
    chains = _canonical_paths(poset, poset.bottom, poset.top)
    keyed = sorted((label_sequence(lab, (poset.bottom,), c), i, c) for i, c in enumerate(chains))
    if not tie_break:
        for (s, _, c), (t, _, d) in zip(keyed, keyed[1:]):
            if s == t:
                raise AmbiguousOrderError(f"chains {c!r} and {d!r} share label sequence {s!r}")
    return tuple(c for _, _, c in keyed)


def assert_readers_match_literal(lab, poset, rng):
    """descent_set, descending_chains (every rooted interval), is_compatible
    (a random first atom table, and rfas_from_tcl's when the labeling is
    TCL) and lex_order_max_chains (with and without tie_break, errors
    included) against the literal oracles."""
    assert descent_set(lab, poset) == _descent_set_literal(lab, poset)
    for r, x, y in _rooted_intervals_literal(poset):
        assert (descending_chains(poset, lab, x, y, r)
                == _descending_chains_literal(lab, poset, r, x, y)), (r, x, y)
    tables = [FirstAtomSet.from_entries(poset, {
        (r, x, y): rng.choice(poset.atoms_of(x, y))
        for r, x, y in _rooted_intervals_literal(poset)})]
    if classify(lab, poset, kinds={"tcl"}).is_tcl:
        try:
            tables.append(rfas_from_tcl(poset, lab))
        except NotAnRfasError:
            pass
    for omega in tables:
        assert is_compatible(lab, omega, poset) == _is_compatible_literal(lab, omega, poset)
    for tie_break in (False, True):
        outcomes = []
        for order in (lex_order_max_chains, _lex_order_literal):
            try:
                outcomes.append(order(lab, poset, tie_break=tie_break))
            except AmbiguousOrderError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], tie_break


def _self_consistency_witness(lab, poset, per_root):
    """First (r, x, y, y', a, b) where a heads the lex-first chains of
    [x, y]_r but some chain through a does not precede every chain through
    its sibling b in [x, y']_r; None when there is none."""
    for r, x, above in per_root:
        bounds = {}
        for yp in above:
            per_atom = {}
            for c in _canonical_paths(poset, x, yp):
                s = label_sequence(lab, r, c)
                lo, hi = per_atom.get(c[1], (s, s))
                per_atom[c[1]] = (min(lo, s), max(hi, s))
            bounds[yp] = per_atom
        for y in above:
            per_atom = bounds[y]
            if len(per_atom) < 2:
                continue
            best = min(lo for lo, _ in per_atom.values())
            for a in [a for a, (lo, _) in per_atom.items() if lo == best]:
                for b in per_atom:
                    for yp in above:
                        pa = bounds[yp]
                        if b != a and a in pa and b in pa and not pa[a][1] < pa[b][0]:
                            return {"root": r, "x": x, "y": y, "y2": yp,
                                    "atom_first": a, "atom_other": b}
    return None


def _rooted_intervals_literal(poset):
    """(r, x, y) with x < y in canonical order: x, then r, then y."""
    key = poset.index.__getitem__
    for x in poset.elements:
        above = sorted((y for y in bfs_reachable(poset.covers, x) if y != x), key=key)
        for r in _canonical_paths(poset, poset.bottom, x):
            for y in above:
                yield r, x, y


def _first_atom_fill_literal(poset, entries, default="leftmost"):
    """FirstAtomSet.from_entries on tuple roots: {(r, x, y): atom} for every
    rooted interval.  The entries are checked in order and the first bad one
    raises, a second atom for a rooted interval named before included; then
    the first rooted interval that no entry names, has several atoms and
    gets no default raises."""
    intervals = list(_rooted_intervals_literal(poset))
    named = {}
    for (r, x, y), atom in dict(entries).items():
        rs = _canonical_paths(poset, poset.bottom, x) if x in poset.index else []
        if r is not None:
            if tuple(r) not in rs:
                raise InvalidRootError(f"{r!r} is not a root of {x!r}")
            rs = [tuple(r)]
        if x not in poset.index or y == x or y not in bfs_reachable(poset.covers, x):
            raise InvalidIntervalError(f"{x!r} is not strictly below {y!r}")
        if len(rs) != 1:
            raise MissingFirstAtomError(f"{x!r} has {len(rs)} roots")
        if atom not in poset.atoms_of(x, y):
            raise MissingFirstAtomError(f"{atom!r} is not an atom of [{x!r}, {y!r}]")
        if named.setdefault((rs[0], x, y), atom) != atom:  # a rooted and a root-less entry
            raise InvalidInputError(f"first atom entries give {(rs[0], x, y)!r} two values")
    table = {}
    for r, x, y in intervals:
        atoms = sorted(poset.atoms_of(x, y), key=poset.index.__getitem__)
        if (r, x, y) not in named and len(atoms) > 1 and default != "leftmost":
            raise MissingFirstAtomError(f"no entry for rooted interval ({r!r}, {x!r}, {y!r})")
        table[(r, x, y)] = named.get((r, x, y), atoms[0])
    return table


def _relabel_literal(poset, order):
    """relabel_from_order on tuple roots: chain positions grouped by every
    proper prefix of each chain."""
    order = tuple(tuple(m) for m in order)
    if sorted(order) != sorted(_canonical_paths(poset, poset.bottom, poset.top)):
        raise ValueError("order must be a permutation of the maximal chains")
    groups = {}
    for pos, m in enumerate(order, start=1):
        for cut in range(1, len(m)):
            groups.setdefault(m[:cut], []).append((pos, m[cut]))
    table = {}
    for prefix, occurrences in groups.items():
        first, last, atoms_in_order = {}, {}, []
        for pos, atom in occurrences:  # positions ascend within each group
            if atom not in first:
                first[atom] = pos
                atoms_in_order.append(atom)
            last[atom] = pos
        labels = {}
        for j, atom in enumerate(atoms_in_order):
            inherit = next((h for h in atoms_in_order[:j] if last[h] > first[atom]), None)
            labels[atom] = first[atom] if inherit is None else labels[inherit]
        for atom, lbl in labels.items():
            table[(prefix, prefix[-1], atom)] = lbl
    return CELabeling(poset, chain_table=table)


def _check_rfas_literal(poset, omega, literal_ii=False):
    """check_rfas with every first atom looked up by its tuple root."""
    fa = omega.first_atom
    violations = []
    for r, x, y in _rooted_intervals_literal(poset):
        atoms = poset.atoms_of(x, y)
        first = fa(r, x, y)
        for a in atoms:
            if a == y:
                continue
            b = fa(r + (a,), a, y)
            heads_xy, heads_xb = first == a, fa(r, x, b) == a
            if heads_xy and not heads_xb:
                violations.append(RfasViolation(
                    "i", "forward", r, x, y, a,
                    f"{a!r} heads [{x!r},{y!r}] but not [{x!r},{b!r}]"))
            if heads_xb and not heads_xy:
                violations.append(RfasViolation(
                    "i", "backward", r, x, y, a,
                    f"{a!r} heads [{x!r},{b!r}] but not [{x!r},{y!r}]"))
        if len(atoms) > 1:
            for a in atoms:
                if a == first or a == y:
                    continue
                # the forced witness recurrence, backwards from the cap
                seen, a_cur, ok = set(), fa(r, x, fa(r + (a,), a, y)), True
                while a_cur != first:
                    if a_cur in seen or literal_ii or a_cur == y:
                        ok = False
                        break
                    seen.add(a_cur)
                    a_cur = fa(r, x, fa(r + (a_cur,), a_cur, y))
                if not ok:
                    violations.append(RfasViolation(
                        "ii", None, r, x, y, a,
                        f"no first-atom walk from {a!r} back to {first!r}"))
    dag = _chain_order_dag_literal(poset, omega)
    stuck = () if violations else _cycle_reach_literal(len(dag.chains), dag.edges)
    if stuck:
        bottom, top = poset.bottom, poset.top
        cycle = " < ".join(repr(dag.chains[i]) for i in _cycle_literal(dag.edges, stuck))
        violations.append(RfasViolation(
            "order", None, (bottom,), bottom, top, None,
            f"chain order has a cycle through {len(stuck)} of {len(dag.chains)} chains; "
            f"one cycle: {cycle}"))
    return RfasReport(not violations, violations, dag.edges)


def _named_cycle(detail):
    """The chains that an "order" violation's detail names, in order."""
    return [ast.literal_eval(m) for m in detail.split("; one cycle: ")[1].split(" < ")]


def _cycle_literal(edges, stuck):
    """The cycle check_rfas names: from the least stuck chain, step to the
    least stuck chain with an edge into the last one until a chain repeats;
    that cycle in edge order, from its least chain back to it."""
    walk = [min(stuck)]
    while walk[-1] not in walk[:-1]:
        walk.append(min(i for i, j in edges if j == walk[-1] and i in stuck))
    cycle = walk[walk.index(walk[-1]):-1][::-1]
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k + 1]


def _cycle_reach_literal(n, edges):
    """The nodes 0..n-1 that lie on a cycle of the edges or are reached from
    one, by a DFS from each node: those no topological order can place."""
    def reached(i):  # the nodes at the end of a path of one or more edges
        seen, stack = set(), [j for a, j in edges if a == i]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(j for a, j in edges if a == v)
        return seen

    reach = [reached(i) for i in range(n)]
    on_cycle = [i for i in range(n) if i in reach[i]]
    return set(on_cycle).union(*(reach[i] for i in on_cycle))


def _rfas_from_tcl_rebuild(poset, lab, budget=DEFAULT_ROOTED_COVER_BUDGET):
    """rfas_from_tcl by way of the chain-order rebuild: the labeling is first
    rebuilt from its lexicographic chain order; each rooted interval's
    designated atom is the one on the unique topologically ascending chain
    of the rebuilt labeling, picked by _chain_is_ascending_literal.  Ties
    the input never broke can leave the rebuilt labeling with no unique
    ascending chain, and then it refuses.
    """
    if not classify(lab, poset, kinds={"tcl"}, budget=budget).is_tcl:
        raise NotTclError("labeling is not a TCL-labeling")
    gamma = lex_order_max_chains(lab, poset, tie_break=True)
    relabeled = relabel_from_order(poset, gamma, budget)
    trie = root_trie(poset, budget)
    table = {}
    for g, x, y in rooted_interval_nodes(poset, trie):
        r = trie.chain(g)
        ascending = [c for c in _canonical_paths(poset, x, y)
                     if _chain_is_ascending_literal(relabeled, poset, r, c)]
        if len(ascending) != 1:
            # happens only when the source labeling has tied label sequences
            # whose removal by the rebuild breaks unique ascendance
            raise NotTclError(
                f"rebuilt labeling has {len(ascending)} ascending chains in "
                f"({r!r}, {x!r}, {y!r}); the source labeling's chain order "
                "has ties that the rebuild cannot preserve"
            )
        table[(g, y)] = trie.child(g, ascending[0][1])
    return FirstAtomSet(poset, table)


def _first_atom_chain_literal(omega, root, x, y):
    chain, root = (x,), tuple(root)
    while chain[-1] != y:
        a = omega.first_atom(root, chain[-1], y)
        chain, root = chain + (a,), root + (a,)
    return chain


def _chain_order_dag_literal(poset, omega):
    """chain_order_dag on tuple chains: each pseudo descent of a chain is
    replaced by the first atom chain it skips, for a valid table."""
    chains = tuple(_canonical_paths(poset, poset.bottom, poset.top))
    pos = {c: i for i, c in enumerate(chains)}
    edges = set()
    for j, m2 in enumerate(chains):
        for i in range(len(m2) - 2):
            x, y, z = m2[i], m2[i + 1], m2[i + 2]
            if y != omega.first_atom(m2[:i + 1], x, z):
                m = m2[:i] + _first_atom_chain_literal(omega, m2[:i + 1], x, z) + m2[i + 3:]
                edges.add((pos[m], j))
    return ChainOrderDag(chains, frozenset(edges))


def _check_lc_literal(poset, omega, node_budget=10 ** 6):
    """check_lc as a plain recursive backtracker without a memo: one frame
    per placed chain, each prefix a node of the budget."""
    dag = chain_order_dag(poset, omega)
    chains = dag.chains
    n = len(chains)
    trie = omega.trie
    parent, depth = trie.parent, trie.depth
    leaves = trie.nodes_of[poset.top]

    # a pattern is a node p at depth >= 2 (the root r + (x, y, z)), open
    # while some but not all chains through it are placed; it opens its
    # grandparent (r + (x,)) except towards its parent (r + (x, y))
    total = [len(trie.within(v, poset.top)) for v in range(len(trie))]
    placed_count = [0] * len(trie)
    open_by_q = [0] * len(trie)
    open_by_qy = [0] * len(trie)

    preds = dag.preds
    nodes = 0
    order = []
    placed_set = set()

    def violates(idx):
        v = leaves[idx]
        while v:
            if open_by_q[parent[v]] > open_by_qy[v]:
                return True
            v = parent[v]
        return False

    def apply(idx, delta):
        p = leaves[idx]
        while depth[p] >= 2:
            h = parent[p]
            was_open = 0 < placed_count[p] < total[p]
            placed_count[p] += delta
            now_open = 0 < placed_count[p] < total[p]
            if was_open != now_open:
                step = 1 if now_open else -1
                open_by_q[parent[h]] += step
                open_by_qy[h] += step
            p = h

    def rec():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                "compatibility search exceeded its node budget",
                nodes=nodes, budget=node_budget, placed=len(order),
            )
        if len(order) == n:
            return tuple(chains[i] for i in order)
        for i in range(n):
            if i in placed_set or not preds[i] <= placed_set:
                continue
            if violates(i):
                continue
            order.append(i)
            placed_set.add(i)
            apply(i, +1)
            found = rec()
            if found is not None:
                return found
            apply(i, -1)
            order.pop()
            placed_set.remove(i)
        return None

    return rec()


def _sandwich_literal(order):
    """First positions (i, j, k) of chains in `order` where the i-th and k-th
    both pass r + (y, z) for a root r of x while the j-th passes r and leaves
    x by an atom other than y; None when the order has no such sandwich."""
    spans = {}
    for pos, m in enumerate(order):
        for t in range(3, len(m) + 1):
            spans[m[:t]] = (spans.get(m[:t], (pos,))[0], pos)
    for prefix, (lo, hi) in spans.items():
        r, y = prefix[:-2], prefix[-2]
        for j in range(lo + 1, hi):
            if order[j][:len(r)] == r and order[j][len(r)] != y:
                return (lo, j, hi)
    return None


def _linear_extensions_literal(dag):
    """Every permutation of the chains that keeps each edge's direction,
    in the lexicographic order of chain positions."""
    out = []
    for perm in permutations(range(len(dag.chains))):
        at = {c: pos for pos, c in enumerate(perm)}
        if all(at[i] < at[j] for i, j in dag.edges):
            out.append(tuple(dag.chains[c] for c in perm))
    return out


def _rao_literal(poset, generalized):
    """find_rao (generalized=False) or find_grao as a plain recursive
    backtracker: memoized on (interval bottom, constraint), one frame per
    placed atom and per interval, the ordering rules from `_Search.step`."""
    rules = _Search(poset, generalized, budget=None)
    memo = {}

    def search(u, constraint):
        key = (u, constraint)
        if key not in memo:
            if rules.leaf(u):
                memo[key] = RaoTree(u, tuple(poset.up[u]))
            else:
                memo[key] = order_atoms(u, constraint, [], {})
        return memo[key]

    def order_atoms(u, constraint, placed, children):
        atoms = poset.up[u]
        if len(placed) == len(atoms):
            return RaoTree(u, tuple(placed), dict(children))
        for a in atoms:
            if a in children:
                continue
            child_constraint = rules.step(u, constraint, placed, a)
            if child_constraint is None:
                continue
            child = search(a, child_constraint)
            if child is None:
                continue
            placed.append(a)
            children[a] = child
            found = order_atoms(u, constraint, placed, children)
            if found is not None:
                return found
            placed.pop()
            del children[a]
        return None

    return search(poset.bottom, frozenset())


def shuffled_boolean_lattice(n, seed):
    """B_n on subsets of range(n), its elements listed in a seeded order
    inside each rank, with an edge labeling by a seeded permutation of the
    coordinates (an EL-labeling)."""
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), rng.random()))
    name = {m: "s" + "".join("abcdefgh"[i] for i in range(n) if m >> i & 1) for m in masks}
    covers = [(name[m], name[m | 1 << i]) for m in masks for i in range(n) if not m >> i & 1]
    poset = build_poset([name[m] for m in masks], covers)
    labels = {(name[m], name[m | 1 << i]): perm[i]
              for m in masks for i in range(n) if not m >> i & 1}
    return poset, CELabeling.from_edges(poset, labels)


def diamond_tower(k):
    """Ordinal sum of k diamonds b_j < p_j, q_j < t_j < b_(j+1), with an EL
    edge labeling: p_j carries the increasing pair 3j+1, 3j+2, q_j the pair
    3j+2, 3j+1, and t_j < b_(j+1) the label 3j+3."""
    elements, labels = [], {}
    for j in range(k):
        b, p, q, t = f"b{j}", f"p{j}", f"q{j}", f"t{j}"
        elements += [b, p, q, t]
        labels.update({(b, p): 3 * j + 1, (p, t): 3 * j + 2,
                       (b, q): 3 * j + 2, (q, t): 3 * j + 1})
        if j + 1 < k:
            labels[(t, f"b{j + 1}")] = 3 * j + 3
    poset = build_poset(elements, list(labels))
    return poset, CELabeling.from_edges(poset, labels)


def bounded(masks):
    """The bounded poset of a census class: entry i of masks is the bitmask
    of the interior elements below v_i, over v_0 ... v_(i-1), and 0hat and
    1hat are adjoined."""
    names = [f"v{i}" for i in range(len(masks))]
    below = [{j for j in range(i) if mask >> j & 1} for i, mask in enumerate(masks)]
    covers = [(names[j], names[i]) for i in range(len(masks)) for j in below[i]
              if not any(j in below[k] for k in below[i])]
    covers += [("0hat", names[i]) for i in range(len(masks)) if not below[i]]
    covers += [(names[i], "1hat") for i in range(len(masks))
               if not any(i in b for b in below)]
    return build_poset(["0hat", *names, "1hat"], covers)


def string_root_case():
    """0 < a, b < c < 1 with one-character names, and a CL chain-edge
    labeling file whose roots are strings ("0", "0a", ...): tuple() would
    split each into the characters of a valid root."""
    p = build_poset(["0", "a", "b", "c", "1"],
                    [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")])
    return p, {"mode": "chain-edge", "labels": [
        {"root": r, "from": r[-1], "to": v, "label": lbl} for r, v, lbl in (
            ("0", "a", 1), ("0", "b", 2), ("0a", "c", 2), ("0b", "c", 1),
            ("0ac", "1", 3), ("0bc", "1", 3))]}


def tie_case():
    """A TCL-labeling whose ascending chain of [0hat, 1hat] is not the
    lexicographically first: 0hat < v3 < 1hat and 0hat < v5 < 1hat tie at
    (2, 3) and put each other into descent, while 0hat < v1 < v4 < 1hat,
    whose two-step subintervals are all single chains, ascends vacuously."""
    p = build_poset(
        ["0hat", "v1", "v2", "v3", "v5", "v4", "1hat"],
        [("0hat", "v1"), ("0hat", "v2"), ("0hat", "v3"), ("0hat", "v5"),
         ("v1", "v4"), ("v2", "1hat"), ("v3", "1hat"), ("v4", "1hat"),
         ("v5", "1hat")],
    )
    return p, CELabeling.from_edges(p, {
        ("0hat", "v1"): 2, ("0hat", "v2"): 4, ("0hat", "v3"): 2,
        ("0hat", "v5"): 2, ("v1", "v4"): 4, ("v2", "1hat"): 3,
        ("v3", "1hat"): 3, ("v4", "1hat"): 4, ("v5", "1hat"): 3,
    })


# A graded poset on 9 elements, with a recursive atom ordering, and a first
# atom table that holds conditions (i) and (ii) although its chain order has a
# cycle: 0hat a0 b1 c0 -> 0hat a0 b1 c1 -> 0hat a0 b2 c1 -> 0hat a0 b2 c0 ->
# 0hat a1 b2 c0 -> 0hat a1 b1 c0 -> 0hat a0 b1 c0 (1hat dropped from each).
# Kahn's algorithm places only 0hat a0 b0 c0 1hat, so 8 of the 9 chains are
# on the cycle or after it.  Both are kept as the JSON a user would write.
CYCLIC_ORDER_POSET = {
    "elements": ["0hat", "a0", "a1", "b0", "b1", "b2", "c0", "c1", "1hat"],
    "covers": [["0hat", "a0"], ["0hat", "a1"], ["a0", "b0"], ["a0", "b1"], ["a0", "b2"],
               ["a1", "b1"], ["a1", "b2"], ["b0", "c0"], ["b1", "c0"], ["b1", "c1"],
               ["b2", "c0"], ["b2", "c1"], ["c0", "1hat"], ["c1", "1hat"]],
}
CYCLIC_ORDER_RFAS = {"first_atoms": [
    {"x": x, "y": y, "atom": atom} for x, y, atom in (
        ("0hat", "b1", "a1"), ("0hat", "b2", "a0"), ("0hat", "c0", "a0"),
        ("0hat", "c1", "a1"), ("0hat", "1hat", "a0"),
        ("a0", "c0", "b0"), ("a0", "c1", "b1"), ("a0", "1hat", "b0"),
        ("a1", "c0", "b2"), ("a1", "c1", "b1"), ("a1", "1hat", "b2"))
] + [
    {"root": ["0hat", a, b], "x": b, "y": "1hat", "atom": c} for a, b, c in (
        ("a0", "b1", "c0"), ("a1", "b1", "c0"), ("a0", "b2", "c1"), ("a1", "b2", "c0"))
]}


def cyclic_order_case():
    """The poset and first atom table above, loaded."""
    p = poset_from_json(CYCLIC_ORDER_POSET)
    return p, first_atom_set_from_json(p, CYCLIC_ORDER_RFAS)


# -- fixtures ------------------------------------------------------------

@pytest.fixture(scope="session")
def fig1():
    return corpus.load_named("fig1")


@pytest.fixture(scope="session")
def fig2():
    return corpus.load_named("fig2-P")


@pytest.fixture(scope="session")
def fig3():
    return corpus.load_named("fig3-Q")


@pytest.fixture(scope="session")
def fig5p():
    return corpus.load_named("fig5-P")


@pytest.fixture(scope="session")
def fig5q():
    return corpus.load_named("fig5-Q")


@pytest.fixture(scope="session")
def fig8():
    return corpus.load_named("fig8")


@pytest.fixture
def chain3():
    """A chain 0hat < m1 < m2 < 1hat."""
    return build_poset(
        ["0hat", "m1", "m2", "1hat"],
        [("0hat", "m1"), ("m1", "m2"), ("m2", "1hat")],
    )


@pytest.fixture
def diamond():
    """Bottom, two atoms, top."""
    return build_poset(
        ["0hat", "a", "b", "1hat"],
        [("0hat", "a"), ("0hat", "b"), ("a", "1hat"), ("b", "1hat")],
    )
