"""Enumeration of maximal chains, roots, rooted intervals and rooted covers.

Chains are tuples of element identifiers read bottom-to-top.  A root of an
element x is a maximal chain of [bottom, x]; it contains both the bottom
element and x.  All enumerations are deterministic: they follow the canonical
element order of the poset.

Maximal chains, of the poset or of one interval, come from one walk over
the covers that holds only the chain being extended.  Where a root is a
key (a chain-edge label, a first atom, a root-dependent verdict), it is
stored once, as a node of the poset's RootTrie.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import BudgetExceededError, InvalidIntervalError, InvalidRootError
from .poset import Poset

DEFAULT_ROOTED_COVER_BUDGET = 10_000
# the node budgets of the RAO search and of check_lc, kept here so that the
# command line reads every default without importing those modules
DEFAULT_SEARCH_BUDGET = 10 ** 6
DEFAULT_LC_BUDGET = 10 ** 6


class RootTrie:
    """Every root of a poset, interned once as a node of a prefix tree.

    Node 0 is the root (bottom,); the children of a node are the covers of
    its element, in canonical order.  Every other node v is one rooted cover
    (root of parent[v], elem[parent[v]], elem[v]), so the trie has exactly
    1 + rooted_cover_count(poset) nodes.  Nodes are numbered in preorder,
    hence node order is the lexicographic order of the roots and the subtree
    of v is the id range [v, end[v]).  depth[v] is the number of covers on
    the root of v.
    """

    __slots__ = ("elem", "parent", "depth", "end", "nodes_of", "_up", "_pos", "_upset", "_forks",
                 "_chains", "_index")

    def __init__(self, poset: Poset):
        # preorder DFS: children are pushed reversed so they pop in order
        rev_up = {e: ws[::-1] for e, ws in poset.up.items()}
        elem, parent, nodes_of = [], [], {e: [] for e in rev_up}
        stack, parents = [poset.bottom], [-1]
        while stack:
            e = stack.pop()
            v = len(elem)
            elem.append(e)
            nodes_of[e].append(v)
            parent.append(parents.pop())
            stack.extend(rev_up[e])
            parents.extend([v] * len(rev_up[e]))
        n = len(elem)
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        size = [1] * n
        for v in range(n - 1, 0, -1):
            size[parent[v]] += size[v]
        self.elem = elem
        self.parent = parent
        self.depth = depth
        self.end = [v + s for v, s in enumerate(size)]
        self.nodes_of = nodes_of
        self._up, self._pos = poset.up, poset.index  # not the poset, which holds the trie
        self._upset = poset._upset
        self._forks = None
        self._chains = None
        self._index = None

    def __len__(self):
        return len(self.elem)

    @property
    def forks(self) -> dict:
        """forks[e] holds, as dict keys in canonical order, the elements above
        two distinct covers of e: the y whose interval [e, y] has two or more
        atoms.  Every other interval [e, y] has one atom, whatever the root
        of e.  Built on first use, since only first-atom tables read it."""
        if self._forks is None:
            upset = self._upset
            self._forks = dict.fromkeys(self._up, {})  # one shared empty dict: a chain has no forks
            for e, ws in self._up.items():
                if len(ws) < 2:
                    continue
                seen, twice = set(), set()
                for w in ws:
                    twice |= seen & upset[w]
                    seen |= upset[w]
                self._forks[e] = dict.fromkeys(sorted(twice, key=self._pos.__getitem__))
        return self._forks

    def children(self, v):
        """Child nodes of v, in canonical order of their elements."""
        end = self.end
        c, stop = v + 1, end[v]
        while c < stop:
            yield c
            c = end[c]

    def within(self, g, y) -> list:
        """Nodes with element y in the subtree of g: the maximal chains of
        [elem[g], y] rooted at g, in lexicographic order."""
        ids = self.nodes_of[y]
        return ids[bisect_left(ids, g):bisect_left(ids, self.end[g])]

    def chain(self, v) -> tuple:
        """The root of node v as a tuple of elements."""
        if self._chains is None:
            elem, parent = self.elem, self.parent
            chains = [(elem[0],)]
            for w in range(1, len(elem)):
                chains.append(chains[parent[w]] + (elem[w],))
            self._chains = chains
        return self._chains[v]

    def child(self, v, e):
        """The child of v with element e, or None."""
        end, elem, c = self.end, self.elem, v + 1
        while c < end[v] and elem[c] != e:
            c = end[c]
        return c if c < end[v] else None

    def below(self, g, y) -> list:
        """The children of g whose elements are at most y: the atoms of the
        interval [elem[g], y]."""
        end, elem, upset, c, out = self.end, self.elem, self._upset, g + 1, []
        while c < end[g]:
            if y in upset[elem[c]]:
                out.append(c)
            c = end[c]
        return out

    def first_below(self, g, y):
        """The first child of g whose element is at most y, which must exist:
        the canonically least atom of [elem[g], y]."""
        elem, end, upset, c = self.elem, self.end, self._upset, g + 1
        while y not in upset[elem[c]]:
            c = end[c]
        return c

    def resolve(self, root, chain) -> list:
        """The one place a tuple root becomes a node: the nodes of root and
        of root extended by each further element of chain, which starts where
        root ends.  Raises InvalidRootError unless root is a maximal chain of
        [bottom, chain[0]], and InvalidIntervalError unless chain is saturated.
        """
        if self._index is None:
            self._index = {self.chain(v): v for v in range(len(self.elem))}
        try:
            g = self._index.get(tuple(root))
        except TypeError:  # not a sequence, or an unhashable element
            g = None
        if g is None or self.elem[g] != chain[0]:
            raise InvalidRootError(f"{root!r} is not a root of {chain[0]!r}")
        nodes = [g]
        for e in chain[1:]:
            nodes.append(self.child(nodes[-1], e))
            if nodes[-1] is None:
                raise InvalidIntervalError(f"{tuple(chain)!r} is not a saturated chain")
        return nodes


def root_trie(poset: Poset, budget: int | None = DEFAULT_ROOTED_COVER_BUDGET) -> RootTrie:
    """The poset's RootTrie, built once and cached on the poset.

    Raises BudgetExceededError when the poset has more rooted covers (trie
    nodes, less one) than the budget; None means no limit.
    """
    ensure_budget(poset, budget)
    if poset._root_trie is None:
        poset._root_trie = RootTrie(poset)
    return poset._root_trie


def walk_chains(poset: Poset, x, y):
    """Iterate the maximal chains of [x, y], x <= y, in lexicographic index
    order: a preorder walk along the covers below y, whose stack holds the
    covers still to take and which builds a tuple only for a whole chain."""
    upset, done = poset._upset, object()  # done: the walk leaves the path's last element
    ups = {e: [done, *(w for w in reversed(poset.up[e]) if y in upset[w])]
           for e in upset[x] if y in upset[e]}
    path, stack = [], [x]
    while stack:
        e = stack.pop()
        if e is done:
            path.pop()
        elif e == y:
            yield (*path, e)
        else:
            path.append(e)
            stack += ups[e]


def maximal_chains(poset: Poset) -> tuple:
    """All maximal bottom-to-top chains, in lexicographic index order.

    These are the roots of the top element, walked without a RootTrie and
    without a budget.
    """
    return tuple(walk_chains(poset, poset.bottom, poset.top))


def check_interval(poset: Poset, x, y):
    """Raise InvalidIntervalError unless x and y are elements with x <= y."""
    for e in (x, y):
        if e not in poset.index:
            raise InvalidIntervalError(f"{e!r} is not an element of the poset")
    if not poset.leq(x, y):
        raise InvalidIntervalError(f"{x!r} is not below {y!r}")


def interval_chains(poset: Poset, x, y) -> tuple:
    """All maximal chains of the closed interval [x, y], lexicographically.

    Returns the one-element chain (x,) when x == y.  Raises
    InvalidIntervalError when x or y is not an element or x is not below y.
    """
    check_interval(poset, x, y)
    return tuple(walk_chains(poset, x, y))


def roots(poset: Poset, x) -> tuple:
    """All roots of x: maximal chains of [bottom, x], lexicographically,
    walked without a RootTrie and without a budget; callers that must bound
    the work check ensure_budget first."""
    return interval_chains(poset, poset.bottom, x)


def is_root(poset: Poset, r, x) -> bool:
    """True iff r is a saturated chain from the bottom element up to x."""
    try:
        r = tuple(r)
    except TypeError:  # not a sequence
        return False
    return (bool(r) and r[0] == poset.bottom and r[-1] == x
            and all(b in poset.up.get(a, ()) for a, b in zip(r, r[1:])))


def maximal_chains_rooted(poset: Poset, r, x, y) -> tuple:
    """Maximal chains of the rooted interval [x, y]_r.

    The root only scopes the interval; the chains themselves are those of
    [x, y].  Raises InvalidRootError when r is not a maximal chain of
    [bottom, x].
    """
    if not is_root(poset, r, x):
        raise InvalidRootError(f"{r!r} is not a maximal chain of [{poset.bottom!r}, {x!r}]")
    return interval_chains(poset, x, y)


def rooted_cover_count(poset: Poset) -> int:
    """Number of rooted cover relations, without enumerating them."""
    return sum(poset.path_count(a) for a, _ in poset.covers)


def rooted_interval_count(poset: Poset) -> int:
    """Number of rooted intervals (r, x, y) with x < y."""
    total = 0
    for x in poset.elements:
        strict_above = len(poset.upset(x)) - 1
        total += poset.path_count(x) * strict_above
    return total


def ensure_budget(poset: Poset, budget: int | None = DEFAULT_ROOTED_COVER_BUDGET):
    """Hard stop before materializing rooted structure on oversized posets;
    a budget of None is no limit."""
    if budget is None:
        return
    count = rooted_cover_count(poset)
    if count > budget:
        raise BudgetExceededError(
            f"poset has {count} rooted covers, budget is {budget}",
            rooted_covers=count,
            budget=budget,
        )


def strictly_above(poset: Poset, x) -> list:
    """Elements y > x in canonical order."""
    key = poset.index.__getitem__
    return sorted((y for y in poset.upset(x) if y != x), key=key)


def rooted_interval_nodes(poset: Poset, trie: RootTrie):
    """Iterate (g, x, y) per rooted interval with x < y, in canonical order:
    node g of the trie is the root of x."""
    for x in poset.elements:
        above = strictly_above(poset, x)
        for g in trie.nodes_of[x]:
            for y in above:
                yield g, x, y


def rooted_intervals(poset: Poset, budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """Iterate every rooted interval (r, x, y) with x < y exactly once."""
    trie = root_trie(poset, budget)
    for g, x, y in rooted_interval_nodes(poset, trie):
        yield trie.chain(g), x, y


def rooted_cover_relations(poset: Poset, budget: int = DEFAULT_ROOTED_COVER_BUDGET):
    """Iterate every rooted cover relation (r, x, y) with x covered by y."""
    trie = root_trie(poset, budget)
    for x in poset.elements:
        ups = poset.up[x]
        if not ups:
            continue
        for g in trie.nodes_of[x]:
            r = trie.chain(g)
            for y in ups:
                yield r, x, y
