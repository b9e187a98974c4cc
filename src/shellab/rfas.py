"""Recursive first atom sets and their induced shelling machinery.

A first atom set designates one atom per rooted interval.  Validation checks
two conditions: (i) an atom heads its interval exactly when it heads the
smaller interval capped at the designated atom above it, and (ii) from any
non-first atom there is a finite zig-zag of designated atoms leading back to
the interval's first atom.  Valid tables induce a partial order on maximal
chains whose linear extensions are shelling orders; an extra linear
extension condition (LC) characterizes when some chain-edge labeling is
compatible with the table.
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .chains import (
    DEFAULT_ROOTED_COVER_BUDGET,
    check_interval,
    maximal_chains,
    root_trie,
    rooted_interval_nodes,
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

DEFAULT_LC_BUDGET = 10 ** 6


class FirstAtomSet:
    """Total map from rooted intervals (r, x, y), x < y, to an atom of [x, y].

    table maps (g, y) to the child node of g whose element is the designated
    atom, where g is the RootTrie node of the root r of x.  Entries omitted
    at construction are auto-filled: a unique atom is forced, and with
    default="leftmost" the canonically least atom is used elsewhere.
    """

    def __init__(self, poset: Poset, table):
        self.poset = poset
        self.trie = root_trie(poset, None)
        self.table = table

    @classmethod
    def from_entries(cls, poset: Poset, entries=(), default="leftmost",
                     budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> "FirstAtomSet":
        """Build a total table from explicit entries plus a fill rule.

        `entries` maps (root, x, y) -> atom; a root may be omitted (None) when
        x has a single root.  Entries are checked as they are read, so the
        first bad one is reported: InvalidRootError for a root that is not a
        root of x, InvalidIntervalError unless x < y, MissingFirstAtomError for
        a root-less x with several roots or an atom not an atom of [x, y].
        Each rooted interval no entry names gets its only atom, or with
        default="leftmost" its canonically least one.
        """
        trie, table = root_trie(poset, budget), {}
        for (r, x, y), atom in dict(entries).items():
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
            table[(gs[0], y)] = c
        for g, x, y in rooted_interval_nodes(poset, trie):
            if (g, y) not in table:
                atoms = trie.below(g, y)
                if len(atoms) > 1 and default != "leftmost":
                    raise MissingFirstAtomError(
                        f"no entry for rooted interval ({trie.chain(g)!r}, {x!r}, {y!r})")
                table[(g, y)] = atoms[0]  # the canonically least atom
        return cls(poset, table)

    def first_atom(self, root, x, y):
        key = (self.trie.resolve(root, (x,))[0], y)
        if key not in self.table:
            raise InvalidIntervalError(f"rooted intervals require {x!r} < {y!r}")
        return self.trie.elem[self.table[key]]


def first_atom_chain(omega: FirstAtomSet, root, x, y) -> tuple:
    """The chain from x to y that follows designated first atoms upward."""
    check_interval(omega.poset, x, y)
    trie, table = omega.trie, omega.table
    g = trie.resolve(root, (x,))[0]
    chain = [x]
    while chain[-1] != y:
        g = table[(g, y)]
        chain.append(trie.elem[g])
    return tuple(chain)


def pseudo_descents(omega: FirstAtomSet, chain, root=None):
    """Positions x < y < z in the chain where y is not the designated first
    atom of [x, z] under the chain's own root.  Returns (x, y, z) triples."""
    chain = tuple(chain)
    if not chain or root is None and chain[0] != omega.poset.bottom:
        raise ValueError("chain does not start at bottom; pass its root")
    nodes = omega.trie.resolve((chain[0],) if root is None else root, chain)
    return [(chain[i], chain[i + 1], chain[i + 2]) for i in range(len(chain) - 2)
            if omega.table[(nodes[i], chain[i + 2])] != nodes[i + 1]]


class RfasViolation(Record):
    _fields = ("condition", "direction", "root", "x", "y", "atom", "detail")

    def __init__(self, condition, direction, root, x, y, atom, detail=""):
        self.condition = condition  # "i" or "ii"
        self.direction = direction  # "forward"/"backward" for (i), None for (ii)
        self.root = root
        self.x = x
        self.y = y
        self.atom = atom
        self.detail = detail


class RfasReport(Record):
    _fields = ("ok", "violations")

    def __init__(self, ok, violations=None):
        self.ok = ok
        self.violations = [] if violations is None else violations

    def __bool__(self):
        return self.ok


def check_rfas(poset: Poset, omega: FirstAtomSet, literal_ii: bool = False,
               budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> RfasReport:
    """Validate both first atom set conditions on every rooted interval.

    Both conditions are read off one map on the atoms of a rooted interval
    [x, y] that y does not cover: atom a steps to the designated atom of
    [x, b], where b is the designated atom of [a, y] rooted at a.
    (i) The designated atom of [x, y] is the step's only fixed point: it
    fails "forward" when that atom steps elsewhere, "backward" when another
    atom steps to itself.  (ii) The orbit of every other atom reaches the
    designated atom.  With literal_ii=True the orbit is cut after one step,
    as when each capped interval keeps the previous atom's root, which is
    never a valid root (kept for auditability).
    """
    trie = root_trie(poset, budget)
    elem, table = trie.elem, omega.table
    violations = []
    for g, x, y in rooted_interval_nodes(poset, trie):
        first = table[(g, y)]
        if elem[first] == y:
            continue  # y covers x, so it is the only atom and steps nowhere
        atoms = trie.below(g, y)
        step = {}
        for c in atoms:
            b = elem[table[(c, y)]]
            step[c] = table[(g, b)]
            if (c == first) != (step[c] == c):
                a = elem[c]
                heads, misses = (y, b) if c == first else (b, y)
                violations.append(RfasViolation(
                    "i", "forward" if c == first else "backward", trie.chain(g), x, y, a,
                    f"{a!r} heads [{x!r},{heads!r}] but not [{x!r},{misses!r}]"))
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
    return RfasReport(not violations, violations)


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
            for i in reversed(_topo_indices(len(succ), succ)):
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
        try:
            _topo_indices(len(self.succ), [s - {i} for i, s in enumerate(self.succ)])
        except NotAnRfasError:
            return False
        return True

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
        _topo_indices(len(preds), preds)  # a cycle reversed is still a cycle
        return preds

    def minimal_indices(self):
        return [i for i, p in enumerate(self.preds) if not p]


def _topo_indices(n, succ):
    """The topological order that always takes the least ready index."""
    import heapq  # here, so that importing the CLI does not load it

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
    if len(order) != n:
        # the chain order of a valid RFAS is acyclic
        raise NotAnRfasError(
            f"chain order has a cycle through {n - len(order)} of {n} chains")
    return order


def chain_order_dag(poset: Poset, omega: FirstAtomSet,
                    budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> ChainOrderDag:
    """Directed graph on maximal chains: m -> m' when m' has a pseudo descent
    whose replacement by the first atom chain yields m."""
    report = check_rfas(poset, omega, budget=budget)
    if not report.ok:
        raise NotAnRfasError(f"{len(report.violations)} violations; not an RFAS")
    trie, table = omega.trie, omega.table
    elem, parent = trie.elem, trie.parent
    pos = {d: j for j, d in enumerate(trie.nodes_of[poset.top])}
    edges = set()
    for k in range(len(trie)):
        if trie.depth[k] < 2:
            continue
        # chains through node k (root r + (x, y, z)) have a pseudo descent
        # at y unless y heads [x, z]; their replacements pass node f, the end
        # of the first atom chain, whose subtree is numbered like that of k
        z, f = elem[k], table[(parent[parent[k]], elem[k])]
        if f == parent[k]:
            continue
        while elem[f] != z:
            f = table[(f, z)]
        for d in trie.within(k, poset.top):
            edges.add((pos[f + d - k], pos[d]))
    return ChainOrderDag(maximal_chains(poset), frozenset(edges))


def linear_extensions(dag: ChainOrderDag):
    """All linear extensions of the chain order, deterministically ordered."""
    pmask = [sum(1 << i for i in p) for p in dag.preds]
    for order in _orderings(len(pmask), lambda i, placed: pmask[i] & placed == pmask[i]):
        yield tuple(dag.chains[i] for i in order)


def shelling_from_rfas(poset: Poset, omega: FirstAtomSet,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """First linear extension of the chain order, a shelling order: always
    the least-index chain whose predecessors are placed, found without search."""
    dag = chain_order_dag(poset, omega, budget)
    return tuple(dag.chains[i] for i in _topo_indices(len(dag.succ), dag.succ))


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
    dp, least = _Intervals(lab, poset, trie), {}
    dp.passes(least=least)
    at, table = dp.at, omega.table
    return all(at[table[(g, y)]] in least[(at[g], y)]
               for g, _, y in rooted_interval_nodes(poset, trie))


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
    ascending chain is its interval's strictly lex-least chain; a table
    that fails check_rfas raises NotAnRfasError."""
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
                                 for g, _, y in rooted_interval_nodes(poset, trie)})
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
        (s, v): sub_trie.child(s, trie.elem[omega.table[(big[s], v)]])
        for s, _, v in rooted_interval_nodes(sub, sub_trie)})


# -- serialization -----------------------------------------------------

def first_atom_set_to_json(omega: FirstAtomSet) -> dict:
    # rooted intervals come in (x, root, y) order, as the entries are listed
    poset, trie = omega.poset, omega.trie
    entries = [
        {"root": list(trie.chain(g)), "x": x, "y": y, "atom": trie.elem[omega.table[(g, y)]]}
        for g, x, y in rooted_interval_nodes(poset, trie)
        if len(trie.below(g, y)) > 1
    ]
    return {"first_atoms": entries, "default": "leftmost"}


def first_atom_set_from_json(poset: Poset, data: dict,
                             budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
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
    return FirstAtomSet.from_entries(poset, entries, default, budget)


def load_first_atom_set(poset: Poset, path,
                        budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    return first_atom_set_from_json(poset, load_json_object(path), budget)
