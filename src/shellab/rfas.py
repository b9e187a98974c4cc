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

import json
from functools import cached_property

from ._record import Record
from .chains import (
    DEFAULT_ROOTED_COVER_BUDGET,
    ensure_budget,
    maximal_chains,
    rooted_intervals,
    roots,
)
from .errors import (
    BudgetExceededError,
    InvalidInputError,
    MissingFirstAtomError,
    NoLcExtensionError,
    NotAnRfasError,
    NotTclError,
    entry_error,
)
from .labeling import CELabeling, _Verifier, classify, lex_order_max_chains
from .poset import Poset, build_poset
from .relabel import relabel_from_order

DEFAULT_LC_BUDGET = 10 ** 6


class FirstAtomSet:
    """Total map from rooted intervals (r, x, y), x < y, to an atom of [x, y].

    Entries omitted at construction are auto-filled: a unique atom is forced,
    and with default="leftmost" the canonically least atom is used elsewhere.
    """

    def __init__(self, poset: Poset, table):
        self.poset = poset
        self.table = dict(table)

    @classmethod
    def from_entries(cls, poset: Poset, entries=(), default="leftmost",
                     budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> "FirstAtomSet":
        """Build a total table from explicit entries plus a fill rule.

        `entries` maps (root, x, y) -> atom; a root may be omitted (None) when
        x has a single root, in which case the entry applies to it.
        """
        ensure_budget(poset, budget)
        explicit = {}
        for (r, x, y), atom in dict(entries).items():
            if r is None:
                rs = roots(poset, x)
                if len(rs) != 1:
                    raise MissingFirstAtomError(
                        f"{x!r} has several roots; entry for [{x!r},{y!r}] must name one"
                    )
                explicit[(rs[0], x, y)] = atom
            else:
                explicit[(tuple(r), x, y)] = atom
        table = {}
        for r, x, y in rooted_intervals(poset, budget):
            atoms = poset.atoms_of(x, y)
            if (r, x, y) in explicit:
                atom = explicit[(r, x, y)]
                if atom not in atoms:
                    raise MissingFirstAtomError(
                        f"{atom!r} is not an atom of [{x!r}, {y!r}]"
                    )
            elif len(atoms) == 1:
                atom = atoms[0]
            elif default == "leftmost":
                atom = atoms[0]  # atoms_of is canonically sorted
            else:
                raise MissingFirstAtomError(
                    f"no entry for rooted interval ({r!r}, {x!r}, {y!r})"
                )
            table[(r, x, y)] = atom
        return cls(poset, table)

    def first_atom(self, root, x, y):
        if x == y:
            raise ValueError("rooted intervals require x < y")
        return self.table[(tuple(root), x, y)]


def first_atom_chain(omega: FirstAtomSet, root, x, y) -> tuple:
    """The chain from x to y that follows designated first atoms upward."""
    root = tuple(root)
    chain = (x,)
    z = x
    while z != y:
        a = omega.first_atom(root, z, y)
        chain = chain + (a,)
        root = root + (a,)
        z = a
    return chain


def pseudo_descents(omega: FirstAtomSet, chain, root=None):
    """Positions x < y < z in the chain where y is not the designated first
    atom of [x, z] under the chain's own root.  Returns (x, y, z) triples."""
    chain = tuple(chain)
    if root is None:
        if chain[0] != omega.poset.bottom:
            raise ValueError("chain does not start at bottom; pass its root")
        root = (chain[0],)
    root = tuple(root)
    if root[-1] != chain[0]:
        raise ValueError("root must end at the chain's first element")
    out = []
    for i in range(len(chain) - 2):
        x, y, z = chain[i], chain[i + 1], chain[i + 2]
        prefix = root + chain[1: i + 1]  # root of x along this chain
        if y != omega.first_atom(prefix, x, z):
            out.append((x, y, z))
    return out


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

    Condition (ii)'s witness walk roots each capped interval at the atom it
    hangs from; with literal_ii=True the walk instead uses the previous
    atom's root, which is never a valid root, so only one-step witnesses
    survive (kept for auditability).
    """
    violations = []
    for r, x, y in rooted_intervals(poset, budget):
        atoms = poset.atoms_of(x, y)
        first = omega.first_atom(r, x, y)
        for a in atoms:
            if a == y:
                continue
            b = omega.first_atom(r + (a,), a, y)
            heads_xy = first == a
            heads_xb = omega.first_atom(r, x, b) == a
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
                b = omega.first_atom(r + (a,), a, y)
                if not _condition_ii_walk(poset, omega, r, x, y, first, b, literal_ii):
                    violations.append(RfasViolation(
                        "ii", None, r, x, y, a,
                        f"no first-atom walk from {a!r} back to {first!r}"))
    return RfasReport(not violations, violations)


def _condition_ii_walk(poset, omega, r, x, y, first, b, literal_ii) -> bool:
    """Follow the forced witness recurrence backwards from the cap b."""
    seen = set()
    a_cur = omega.first_atom(r, x, b)
    while a_cur != first:
        if a_cur in seen:
            return False
        seen.add(a_cur)
        if literal_ii:
            return False  # the literal root is never valid beyond one step
        if a_cur == y:
            return False
        b_cur = omega.first_atom(r + (a_cur,), a_cur, y)
        a_cur = omega.first_atom(r, x, b_cur)
    return True


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
            n = len(self.chains)
            succ = [set() for _ in range(n)]
            for i, j in self.edges:
                succ[i].add(j)
            reach = [None] * n
            order = _topo_indices(n, succ)
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
        cl = self.closure()
        n = len(self.chains)
        return not any(
            i != j and j in cl[i] and i in cl[j]
            for i in range(n) for j in range(n)
        )

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
    indeg = [0] * n
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    order = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
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
    chains = maximal_chains(poset)
    pos = {c: i for i, c in enumerate(chains)}
    edges = set()
    for j, m2 in enumerate(chains):
        for (x, y, z) in pseudo_descents(omega, m2):
            ix = m2.index(x)
            prefix = m2[: ix + 1]
            replacement = first_atom_chain(omega, prefix, x, z)
            m = m2[:ix] + replacement + m2[m2.index(z) + 1:]
            edges.add((pos[m], j))
    return ChainOrderDag(chains, frozenset(edges))


def linear_extensions(dag: ChainOrderDag):
    """All linear extensions of the chain order, deterministically ordered."""
    n = len(dag.chains)
    preds = dag.preds

    def rec(placed, placed_set):
        if len(placed) == n:
            yield tuple(dag.chains[i] for i in placed)
            return
        for i in range(n):
            if i in placed_set or not preds[i] <= placed_set:
                continue
            placed.append(i)
            placed_set.add(i)
            yield from rec(placed, placed_set)
            placed.pop()
            placed_set.remove(i)

    yield from rec([], set())


def shelling_from_rfas(poset: Poset, omega: FirstAtomSet,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """First linear extension of the chain order, a shelling order."""
    dag = chain_order_dag(poset, omega, budget)
    return next(linear_extensions(dag))


def check_lc(poset: Poset, omega: FirstAtomSet,
             node_budget: int = DEFAULT_LC_BUDGET,
             budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """A linear extension of the chain order with no sandwiched root switch,
    or None when every extension has one.

    The forbidden pattern: chains at positions i < j < k where the i-th and
    k-th share a rooted cover pair (r, x < y < z) while the j-th passes x
    with the same root but a different atom above it.  Backtracking places
    chains one by one; placing a chain that deviates at (r, x) while some
    chain through (r, x < y < z) is already placed and another is still
    unplaced is pruned, which is exact, so exhaustion proves nonexistence.
    """
    dag = chain_order_dag(poset, omega, budget)
    chains = dag.chains
    n = len(chains)

    # pattern = prefix of length >= 3: r + (x, y, z); breaker key = (r+(x,), y)
    patterns = {}
    chain_patterns = [[] for _ in range(n)]
    chain_prefixes = [[] for _ in range(n)]
    for idx, m in enumerate(chains):
        for cut in range(3, len(m) + 1):
            p = m[:cut]
            patterns[p] = patterns.get(p, 0) + 1
            chain_patterns[idx].append(p)
        for cut in range(1, len(m)):
            chain_prefixes[idx].append((m[:cut], m[cut]))

    total = patterns
    placed_count = {p: 0 for p in total}
    open_by_q = {}
    open_by_qy = {}

    preds = dag.preds
    nodes = 0
    order = []
    placed_set = set()

    def violates(idx):
        for q, y in chain_prefixes[idx]:
            if open_by_q.get(q, 0) - open_by_qy.get((q, y), 0) > 0:
                return True
        return False

    def apply(idx, delta):
        for p in chain_patterns[idx]:
            q = p[:-2]
            y = p[-2]
            was_open = 0 < placed_count[p] < total[p]
            placed_count[p] += delta
            now_open = 0 < placed_count[p] < total[p]
            if was_open != now_open:
                step = 1 if now_open else -1
                open_by_q[q] = open_by_q.get(q, 0) + step
                open_by_qy[(q, y)] = open_by_qy.get((q, y), 0) + step

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


def is_compatible(lab: CELabeling, omega: FirstAtomSet, poset: Poset,
                  budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> bool:
    """True iff in every rooted interval the designated first atom lies on a
    maximal chain attaining the dictionary-least label sequence."""
    ver = _Verifier(lab, poset, budget)
    trie, path = ver.trie, ver.path
    for g, x, y, ds in ver.intervals():
        best = min(path[d] for d in ds)
        c = trie.child(g, omega.first_atom(trie.chain(g), x, y))
        if c is None or not any(path[d] == best for d in trie.within(c, y)):
            return False
    return True


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
    """First atom set read off a TCL-labeling.

    The labeling is first rebuilt from its lexicographic chain order; each
    rooted interval's designated atom is the one on the unique topologically
    ascending chain of the rebuilt labeling.
    """
    if not classify(lab, poset, kinds={"tcl"}, budget=budget).is_tcl:
        raise NotTclError("labeling is not a TCL-labeling")
    gamma = lex_order_max_chains(lab, poset, tie_break=True)
    relabeled = relabel_from_order(poset, gamma, budget)
    ver = _Verifier(relabeled, poset, budget)
    trie, descent = ver.trie, ver.last_descent
    table = {}
    for g, x, y, ds in ver.intervals():
        r = trie.chain(g)
        ascending = [d for d in ds if descent[d] < trie.depth[g]]
        if len(ascending) != 1:
            # happens only when the source labeling has tied label sequences
            # whose removal by the rebuild breaks unique ascendance
            raise NotTclError(
                f"rebuilt labeling has {len(ascending)} ascending chains in "
                f"({r!r}, {x!r}, {y!r}); the source labeling's chain order "
                "has ties that the rebuild cannot preserve"
            )
        table[(r, x, y)] = trie.atom(g, ascending[0])
    return FirstAtomSet(poset, table)


def restrict_first_atom_set(poset: Poset, omega: FirstAtomSet, root, x, y):
    """The closed interval [x, y] as a standalone poset, with the first atom
    table restricted to it (sub-roots are grafted onto the given root)."""
    members = poset.interval(x, y)
    member_set = set(members)
    covers = [(a, b) for a, b in poset.covers if a in member_set and b in member_set]
    sub = build_poset(members, covers)
    root = tuple(root)
    table = {}
    for (r2, u, v) in rooted_intervals(sub):
        table[(r2, u, v)] = omega.first_atom(root + r2[1:], u, v)
    return sub, FirstAtomSet(sub, table)


# -- serialization -----------------------------------------------------

def first_atom_set_to_json(omega: FirstAtomSet) -> dict:
    poset = omega.poset
    entries = [
        {"root": list(r), "x": x, "y": y, "atom": atom}
        for (r, x, y), atom in sorted(
            omega.table.items(),
            key=lambda kv: (
                poset.index[kv[0][1]],
                [poset.index[e] for e in kv[0][0]],
                poset.index[kv[0][2]],
            ),
        )
        if len(poset.atoms_of(x, y)) > 1
    ]
    return {"first_atoms": entries, "default": "leftmost"}


def first_atom_set_from_json(poset: Poset, data: dict,
                             budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    listed = data.get("first_atoms", [])
    if not isinstance(listed, list):
        raise InvalidInputError('"first_atoms" must be a list')
    entries = {}
    try:
        for e in listed:
            root = tuple(e["root"]) if e.get("root") is not None else None
            entries[(root, e["x"], e["y"])] = e["atom"]
    except (AttributeError, KeyError, TypeError) as exc:
        raise entry_error("first atom", listed, ("x", "y", "atom"), exc) from None
    default = data.get("default", "leftmost")
    return FirstAtomSet.from_entries(poset, entries, default, budget)


def load_first_atom_set(poset: Poset, path,
                        budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> FirstAtomSet:
    with open(path) as fh:
        return first_atom_set_from_json(poset, json.load(fh), budget)
