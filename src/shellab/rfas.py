"""Recursive first atom sets and their induced shelling machinery.

A first atom set designates one atom per rooted interval.  Validation checks
three conditions: (i) an atom heads its interval exactly when it heads the
smaller interval capped at the designated atom above it, (ii) from any
non-first atom a finite zig-zag of designated atoms leads back to the
interval's first atom, and ("order") the order these tables induce on
maximal chains, built by the same walk, has no cycle.  Its linear
extensions are shelling orders; an extra linear extension condition (LC)
characterizes when some chain-edge labeling is compatible with the table.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, count

from ._record import Record
from .chains import (
    DEFAULT_LC_BUDGET,
    DEFAULT_ROOTED_COVER_BUDGET,
    check_interval,
    root_trie,
)
from .errors import (
    BudgetExceededError,
    InvalidInputError,
    InvalidIntervalError,
    MissingFirstAtomError,
    NoLcExtensionError,
    NotAnRfasError,
    NotTclError,
    entry_error,
    entry_root,
    unique_table,
)
from .labeling import CELabeling, _Intervals
from .poset import Poset, build_poset, load_json_object
from .relabel import relabel_from_order
from .shelling import _orderings


class FirstAtomSet:
    """Total map from rooted intervals (r, x, y), x < y, to an atom of [x, y].

    table maps (g, y) to the child node of g whose element is the designated
    atom, where g is the RootTrie node of the root r of x.  It holds only
    the rooted intervals with a choice, those whose [x, y] has two or more
    atoms (y in trie.forks[x]); the one atom of any other interval is looked
    up when asked for, and keys of such intervals given to the constructor
    are dropped.  Entries omitted at construction are auto-filled: with
    default="leftmost" the canonically least atom is used.
    """

    def __init__(self, poset: Poset, table):
        self.poset = poset
        self.trie = trie = root_trie(poset, None)
        elem, forks = trie.elem, trie.forks
        self.table = {(g, y): c for (g, y), c in table.items() if y in forks[elem[g]]}

    @classmethod
    def from_entries(cls, poset: Poset, entries=(), default="leftmost",
                     budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> "FirstAtomSet":
        """Build a total table from explicit entries plus a fill rule.

        `entries` maps (root, x, y) -> atom; a root may be omitted (None) when
        x has a single root.  Entries are checked as they are read, so the
        first bad one is reported: InvalidRootError for a root that is not a
        root of x, InvalidIntervalError unless x < y, MissingFirstAtomError for
        a root-less x with several roots or an atom not an atom of [x, y],
        InvalidInputError for a second atom of one rooted interval.  An entry
        for an interval with one atom is checked so, and then dropped.  Other
        rooted intervals with a choice get by default="leftmost" the least atom.
        """
        trie, table = root_trie(poset, budget), {}
        for (r, x, y), atom in (entries.items() if entries else ()):
            # a given root resolves to one node; a root-less x has its roots
            gs = trie.nodes_of.get(x, ()) if r is None else trie.resolve(r, (x,))
            if x not in poset.index or not poset.lt(x, y):
                raise InvalidIntervalError(f"{x!r} is not strictly below {y!r}")
            if len(gs) != 1:
                raise MissingFirstAtomError(
                    f"{x!r} has {len(gs)} roots; entry for [{x!r},{y!r}] must name one")
            c = trie.child(gs[0], atom)
            if c is None or not poset.leq(trie.elem[c], y):
                raise MissingFirstAtomError(f"{atom!r} is not an atom of [{x!r}, {y!r}]")
            if table.setdefault((gs[0], y), c) != c:  # a rooted and a root-less entry
                raise InvalidInputError(f"first atom entries give {(trie.chain(gs[0]), x, y)!r} "
                                        f"two values, {trie.elem[table[(gs[0], y)]]!r} and {atom!r}")
        for g, x, y in _choice_nodes(poset, trie):
            if (g, y) not in table:
                if default != "leftmost":
                    raise MissingFirstAtomError(
                        f"no entry for rooted interval ({trie.chain(g)!r}, {x!r}, {y!r})")
                table[(g, y)] = trie.first_below(g, y)
        return cls(poset, table)

    def atom(self, g, y):
        """The designated atom of [elem[g], y] rooted at node g, as a child
        node of g; y must lie strictly above elem[g]."""
        return self.table.get((g, y)) or self.trie.first_below(g, y)  # a child is never node 0

    def first_atom(self, root, x, y):
        g = self.trie.resolve(root, (x,))[0]
        if not self.poset.lt(x, y):
            raise InvalidIntervalError(f"rooted intervals require {x!r} < {y!r}")
        return self.trie.elem[self.atom(g, y)]


def _choice_nodes(poset: Poset, trie):
    """(g, x, y) per rooted interval whose [x, y] has two or more atoms, in
    the canonical order of rooted_interval_nodes."""
    forks = trie.forks
    for x in poset.elements:
        for g in trie.nodes_of[x]:
            for y in forks[x]:
                yield g, x, y


def first_atom_chain(omega: FirstAtomSet, root, x, y) -> tuple:
    """The chain from x to y that follows designated first atoms upward."""
    check_interval(omega.poset, x, y)
    g = omega.trie.resolve(root, (x,))[0]
    chain = [x]
    while chain[-1] != y:
        g = omega.atom(g, y)
        chain.append(omega.trie.elem[g])
    return tuple(chain)


def pseudo_descents(omega: FirstAtomSet, chain, root=None):
    """Positions x < y < z in the chain where y is not the designated first
    atom of [x, z] under the chain's own root.  Returns (x, y, z) triples."""
    chain = tuple(chain)
    if not chain or root is None and chain[0] != omega.poset.bottom:
        raise ValueError("chain does not start at bottom; pass its root")
    nodes = omega.trie.resolve((chain[0],) if root is None else root, chain)
    return [(chain[i], chain[i + 1], chain[i + 2]) for i in range(len(chain) - 2)
            if omega.atom(nodes[i], chain[i + 2]) != nodes[i + 1]]


class RfasViolation(Record):
    _fields = ("condition", "direction", "root", "x", "y", "atom", "detail")

    def __init__(self, condition, direction, root, x, y, atom, detail=""):
        self.condition = condition  # "i", "ii" or "order"
        self.direction = direction  # "forward"/"backward" for (i), else None
        self.root = root
        self.x = x
        self.y = y
        self.atom = atom
        self.detail = detail


class RfasReport(Record):
    _fields = ("ok", "violations", "edges")

    def __init__(self, ok, violations=None, edges=frozenset(), order=None):
        self.ok = ok
        self.violations = [] if violations is None else violations
        self.edges = edges  # the chain order, as ChainOrderDag.edges
        # the first linear extension of the edges, as chain indices; None unless ok
        self.order = order

    def __bool__(self):
        return self.ok


def check_rfas(poset: Poset, omega: FirstAtomSet, literal_ii: bool = False,
               budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> RfasReport:
    """Validate the three first atom set conditions; one walk also builds the chain order.

    (i) and (ii) are read off one map on the atoms of a rooted interval
    [x, y] with two or more atoms: atom a steps to the designated atom of
    [x, b], where b is the designated atom of [a, y] rooted at a.  (An
    interval with one atom would step it to itself and order no chains, so
    it is not walked.)
    (i) The designated atom of [x, y] is the step's only fixed point: it
    fails "forward" when that atom steps elsewhere, "backward" when another
    atom steps to itself.  (ii) The orbit of every other atom reaches the
    designated atom.  With literal_ii=True the orbit is cut after one step,
    as when each capped interval keeps the previous atom's root, which is
    never a valid root (kept for auditability).  ("order") When (i) and
    (ii) hold, the chain order has no cycle, and report.order is its first
    linear extension; else the violation names one cycle.  Its edges,
    report.edges, put each chain through x < c < y, c not designated in
    [x, y], after the chain that takes the first atom chain of [x, y] there
    instead.
    """
    trie = root_trie(poset, budget)
    elem, end, table, atom = trie.elem, trie.end, omega.table, omega.atom
    # a subtree's maximal chains (leaves) are a run: rank[v] of them precede v
    rank = list(accumulate((e == poset.top for e in elem), initial=0))
    violations, edges = [], []
    for g, x, y in _choice_nodes(poset, trie):
        first = table[(g, y)]
        atoms = trie.below(g, y)
        step, f = {}, first
        for c in atoms:
            b = elem[k := atom(c, y)]
            step[c] = table.get((g, b), c)  # c is an atom of [x, b], the only one if none is stored
            if (c == first) != (step[c] == c):
                a = elem[c]
                heads, misses = (y, b) if c == first else (b, y)
                violations.append(RfasViolation(
                    "i", "forward" if c == first else "backward", trie.chain(g), x, y, a,
                    f"{a!r} heads [{x!r},{heads!r}] but not [{x!r},{misses!r}]"))
            if b == y and c != first:
                # the replacements of the chains through k pass node f, the end of
                # the first atom chain, whose subtree is numbered like that of k
                while elem[f] != y:
                    f = atom(f, y)
                edges += zip(count(rank[f]), range(rank[k], rank[end[k]]))
        for c in atoms:
            if c == first:
                continue
            seen, a = set(), step[c]
            while not (a == first or a in seen or literal_ii):
                seen.add(a)
                a = step[a]
            if a != first:
                violations.append(RfasViolation(
                    "ii", None, trie.chain(g), x, y, elem[c],
                    f"no first-atom walk from {elem[c]!r} back to {elem[first]!r}"))
    order = None
    if not violations:
        succ = [[] for _ in range(rank[-1])]
        for i, j in edges:
            succ[i].append(j)
        order = _topo_indices(succ)
        if len(order) < len(succ):
            leaves = trie.nodes_of[poset.top]
            violations.append(RfasViolation(
                "order", None, (poset.bottom,), poset.bottom, poset.top, None,
                _cycle_message(succ, order, lambda i: trie.chain(leaves[i]))))
    return RfasReport(not violations, violations, frozenset(edges), None if violations else order)


class ChainOrderDag(Record):
    """Maximal chains with the replace-a-pseudo-descent relation."""

    _fields = ("chains", "edges")

    def __init__(self, chains, edges):
        self.chains = chains
        self.edges = edges  # (i, j): chains[i] precedes chains[j]
        self._closure = None

    def index(self, chain):
        return self.chains.index(tuple(chain))

    def closure(self):
        """closure()[i] = set of chain indices reachable from i (reflexive)."""
        if self._closure is None:
            succ = self.succ
            reach = [None] * len(succ)
            order = _topo_indices(succ)
            if len(order) < len(succ):
                raise NotAnRfasError(_cycle_message(succ, order, self.chains.__getitem__))
            for i in reversed(order):
                r = {i}
                for j in succ[i]:
                    r |= reach[j]
                reach[i] = r
            self._closure = reach
        return self._closure

    def precedes(self, m, m2) -> bool:
        return self.index(m2) in self.closure()[self.index(m)]

    def is_antisymmetric(self) -> bool:
        """False exactly when the edges between distinct chains have a cycle."""
        return len(_topo_indices([s - {i} for i, s in enumerate(self.succ)])) == len(self.succ)

    @cached_property
    def succ(self):
        """succ[i] = chain indices with an edge out of i."""
        succ = [set() for _ in self.chains]
        for i, j in self.edges:
            succ[i].add(j)
        return succ

    @cached_property
    def preds(self):
        """preds[j] = chain indices with an edge into j.  A set of chains
        holding every direct predecessor of each member is a down-set of the
        (acyclic) chain order, so direct edges decide placement."""
        preds = [set() for _ in self.chains]
        for i, j in self.edges:
            preds[j].add(i)
        return preds

    def minimal_indices(self):
        return [i for i, p in enumerate(self.preds) if not p]


def _topo_indices(succ):
    """The topological order that always takes the least ready index.  On a
    cycle it stops short: the indices left out lie on a cycle or after one."""
    import heapq  # here, so that importing the CLI does not load it

    n = len(succ)
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]  # sorted, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    return order


def _cycle_message(succ, order, chain):
    """Name one cycle among the indices that the topological order left out.

    Each of them keeps a predecessor left out (its in-degree never reached
    0), so stepping from the least one to its least such predecessor
    repeats an index.  The cycle is named in edge order from its least
    index, chain(i) giving chain i."""
    left = sorted(set(range(len(succ))).difference(order), reverse=True)
    pred = {j: i for i in left for j in succ[i]}  # the least, written last
    path = [left[-1]]
    while pred[path[-1]] not in path:
        path.append(pred[path[-1]])
    cycle = path[path.index(pred[path[-1]]):][::-1]
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k + 1]
    return (f"chain order has a cycle through {len(left)} of {len(succ)} chains; "
            f"one cycle: {' < '.join(repr(chain(i)) for i in cycle)}")


def chain_order_dag(poset: Poset, omega: FirstAtomSet,
                    budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> ChainOrderDag:
    """Directed graph on maximal chains: m -> m' when m' has a pseudo descent
    whose replacement by the first atom chain yields m.  The edges are those
    check_rfas builds; raises NotAnRfasError unless it accepts the table."""
    edges, trie = _accepted(poset, omega, budget).edges, omega.trie
    return ChainOrderDag(tuple(map(trie.chain, trie.nodes_of[poset.top])), edges)


def _accepted(poset, omega, budget) -> RfasReport:
    """check_rfas's report; raises NotAnRfasError unless it accepts the table."""
    report = check_rfas(poset, omega, budget=budget)
    if not report.ok:
        v = report.violations  # an "order" violation comes alone
        raise NotAnRfasError(v[0].detail if v[0].condition == "order" else
                             f"{len(v)} violations; not an RFAS")
    return report


def linear_extensions(dag: ChainOrderDag):
    """All linear extensions of the chain order, deterministically ordered."""
    pmask = [sum(1 << i for i in p) for p in dag.preds]
    for order in _orderings(len(pmask), lambda i, placed: pmask[i] & placed == pmask[i]):
        yield tuple(dag.chains[i] for i in order)


def shelling_from_rfas(poset: Poset, omega: FirstAtomSet,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """First linear extension of the chain order, a shelling order: always
    the least-index chain whose predecessors are placed, found without search."""
    order, trie = _accepted(poset, omega, budget).order, omega.trie
    leaves = trie.nodes_of[poset.top]
    return tuple(trie.chain(leaves[i]) for i in order)


def check_lc(poset: Poset, omega: FirstAtomSet,
             node_budget: int = DEFAULT_LC_BUDGET,
             budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """A linear extension of the chain order with no sandwiched root switch,
    or None when every extension has one.

    The forbidden pattern: chains at positions i < j < k where the i-th and
    k-th share a rooted cover pair (r, x < y < z) while the j-th passes x
    with the same root but a different atom above it.  `_orderings` places
    chains one by one; placing a chain that deviates at (r, x) while some
    chain through (r, x < y < z) is already placed and another is still
    unplaced is pruned, which is exact, so exhaustion proves nonexistence.
    Both tests depend only on the placed set, as its dead-set memo needs.
    """
    dag = chain_order_dag(poset, omega, budget)
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

    missing = [len(p) for p in dag.preds]  # unplaced direct predecessors
    nodes = placed = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                "compatibility search exceeded its node budget",
                nodes=nodes, budget=node_budget, placed=placed,
            )

    def fits(idx, placed_mask):
        if missing[idx]:
            return False
        v = leaves[idx]  # climb while idx would split no open pattern at v
        while v and open_by_q[parent[v]] <= open_by_qy[v]:
            v = parent[v]
        return not v

    def place(idx, delta):
        nonlocal placed
        placed += delta
        if delta > 0:
            tick()
        for j in dag.succ[idx]:
            missing[j] -= delta
        p = leaves[idx]
        while depth[p] >= 2:
            h = parent[p]
            was_open = 0 < placed_count[p] < total[p]
            placed_count[p] += delta
            step = (0 < placed_count[p] < total[p]) - was_open
            open_by_q[parent[h]] += step
            open_by_qy[h] += step
            p = h

    tick()  # the empty prefix is the first node
    order = next(_orderings(len(leaves), fits, place), None)
    return None if order is None else tuple(dag.chains[i] for i in order)


def is_compatible(lab: CELabeling, omega: FirstAtomSet, poset: Poset,
                  budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> bool:
    """True iff in every rooted interval the designated first atom lies on a
    maximal chain attaining the dictionary-least label sequence."""
    trie = root_trie(poset, budget)
    dp = _Intervals(lab, poset, trie)
    at, roots = dp.at, trie.nodes_of

    def designated(v, y):  # called at each [v, y] with a choice
        gs = (v,) if dp.trie is not None else roots[dp.elem[v]]  # an element serves its roots
        return [at[omega.atom(g, y)] for g in gs]
    return "atom" not in dp.passes(designated=designated)[0]


def compatible_labeling(poset: Poset, omega: FirstAtomSet,
                        node_budget: int = DEFAULT_LC_BUDGET,
                        budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> CELabeling:
    """A chain-edge labeling compatible with the first atom set.

    Built by relabeling from a linear extension satisfying the sandwich-free
    condition; raises NoLcExtensionError when no such extension exists.
    """
    gamma = check_lc(poset, omega, node_budget, budget)
    if gamma is None:
        raise NoLcExtensionError(
            "no linear extension of the chain order avoids sandwiched root switches"
        )
    return relabel_from_order(poset, gamma, budget)


def rfas_from_tcl(poset: Poset, lab: CELabeling,
                  budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    """First atom set whose designated atoms are those of each rooted
    interval's unique topologically ascending chain.

    Condition (i) holds for any TCL-labeling, and (ii) whenever each
    ascending chain is its interval's strictly lex-least chain; "order" is
    not proven, so a table that check_rfas refuses raises NotAnRfasError."""
    trie = root_trie(poset, budget)
    dp, atoms = _Intervals(lab, poset, trie), {}
    first = dp.passes({"tcl"}, atoms=atoms)[0]
    if "tcl" in first:
        v, y = dp.interval(first["tcl"])
        raise NotTclError(
            f"labeling is not a TCL-labeling: ({dp.root(v)!r}, {dp.elem[v]!r}, "
            f"{y!r}) has {len(dp.chains('tcl', v, y))} topologically ascending chains")
    at, elem = dp.at, dp.elem
    omega = FirstAtomSet(poset, {(g, y): trie.child(g, elem[atoms[(at[g], y)]])
                                 for g, _, y in _choice_nodes(poset, trie)})
    violations = check_rfas(poset, omega, budget=budget).violations
    if violations:
        raise NotAnRfasError(f"the ascending chains' atoms are not an RFAS: {violations[0]!r}")
    return omega


def restrict_first_atom_set(poset: Poset, omega: FirstAtomSet, root, x, y):
    """The closed interval [x, y] as a standalone poset, with the first atom
    table restricted to it (sub-roots are grafted onto the given root)."""
    check_interval(poset, x, y)
    members = poset.interval(x, y)
    member_set = set(members)
    covers = [(a, b) for a, b in poset.covers if a in member_set and b in member_set]
    sub = build_poset(members, covers)
    trie, sub_trie = omega.trie, root_trie(sub)
    big = trie.resolve(root, (x,))  # big[s]: sub-root s grafted onto root
    for s in range(1, len(sub_trie)):
        big.append(trie.child(big[sub_trie.parent[s]], sub_trie.elem[s]))
    return sub, FirstAtomSet(sub, {
        (s, v): sub_trie.child(s, trie.elem[omega.atom(big[s], v)])
        for s, _, v in _choice_nodes(sub, sub_trie)})


# -- serialization -----------------------------------------------------

def first_atom_set_to_json(omega: FirstAtomSet) -> dict:
    # rooted intervals with a choice come in (x, root, y) order, as the entries are listed
    trie = omega.trie
    entries = [
        {"root": list(trie.chain(g)), "x": x, "y": y, "atom": trie.elem[omega.table[(g, y)]]}
        for g, x, y in _choice_nodes(omega.poset, trie)
    ]
    return {"first_atoms": entries, "default": "leftmost"}


def first_atom_set_from_json(poset: Poset, data: dict,
                             budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    entries, default = _first_atom_entries(data)
    del data  # the decoded file, freed before the trie is built unless the caller holds it
    return FirstAtomSet.from_entries(poset, entries, default, budget)


def load_first_atom_set(poset: Poset, path,
                        budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    # no frame holds the decoded file once its entries are read
    return FirstAtomSet.from_entries(poset, *_first_atom_entries(load_json_object(path)), budget)


def _first_atom_entries(data) -> tuple:
    """The entries, (root, x, y) -> atom, and the default of a decoded
    first-atom file, whose shape is checked here."""
    listed = data.get("first_atoms", []) if isinstance(data, dict) else None
    if not isinstance(listed, list):
        raise InvalidInputError('a first atom set needs an object with a "first_atoms" list')
    try:
        entries = unique_table("first atom", (
            ((None if e.get("root") is None else entry_root("first atom", e), e["x"], e["y"]),
             e["atom"])
            for e in listed))
    except (AttributeError, KeyError, TypeError) as exc:
        raise entry_error("first atom", listed, ("x", "y", "atom"), exc) from None
    default = data.get("default", "leftmost")
    if default not in ("leftmost", None):
        raise InvalidInputError(f'"default" must be "leftmost" or null, not {default!r}')
    return entries, default
