"""Search and verification for recursive atom orderings (RAO / GRAO).

Both searches are exhaustive: each upper interval's atom order comes from
`shelling._orderings`, and results are memoized on (interval bottom,
constraint set), so a returned None is a certificate of absence.  The
per-pair obstruction scan mirrors the hand argument that rules out every
two-atom prefix.
"""

from __future__ import annotations

from .chains import DEFAULT_SEARCH_BUDGET
from .errors import BudgetExceededError, MalformedCertificateError
from .poset import Poset
from .shelling import _orderings


class RaoTree:
    """Certificate: an atom order for [bottom, top] plus child certificates.

    Children are keyed by atom; intervals whose longest chain has length one
    are leaves.  A certificate is as deep as the longest chain, so nothing
    here recurses: two certificates are equal when they write the same JSON,
    and the repr names the children's atoms only.
    """

    def __init__(self, bottom, atom_order, children=None):
        self.bottom = bottom
        self.atom_order = atom_order
        self.children = {} if children is None else children

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self):
        children = ", ".join(f"{a!r}: ..." for a in self.children)
        return (f"RaoTree(bottom={self.bottom!r}, atom_order={self.atom_order!r}, "
                f"children={{{children}}})")

    def to_json(self):
        """``{"certificate": [{"root": [...], "atom_order": [...]}, ...]}``:
        one entry per node, in preorder, with the children of a node in its
        atom order.  A root runs from this tree's bottom to the node's."""
        entries, stack = [], [((self.bottom,), self)]
        while stack:
            root, tree = stack.pop()
            entries.append({"root": list(root), "atom_order": list(tree.atom_order)})
            stack.extend((root + (a,), tree.children[a])
                         for a in reversed(tree.atom_order) if a in tree.children)
        return {"certificate": entries}

    @classmethod
    def from_json(cls, data):
        """Read what to_json writes.  Raises MalformedCertificateError for
        another shape, and for an entry after the first whose root does not
        extend an earlier entry's root by one of that entry's atoms."""
        try:
            entries = [(tuple(e["root"]), tuple(e["atom_order"])) for e in data["certificate"]]
            trees = {}
            for root, order in entries:
                parent = trees.get(root[:-1])
                if trees and (parent is None or root[-1] not in parent.atom_order or root in trees):
                    raise MalformedCertificateError(
                        f"root {list(root)!r} does not extend an earlier root by one of its atoms")
                trees[root] = cls(root[-1], order)
                if parent is not None:
                    parent.children[root[-1]] = trees[root]
            return trees[entries[0][0]]
        except (TypeError, KeyError, IndexError):
            raise MalformedCertificateError(
                'a certificate is a "certificate" list of "root" and "atom_order" entries') from None


def _pair_witness(poset: Poset, a, placed):
    """The canonically first y that breaks the pair condition for atom a
    placed after the atoms `placed`, or None when the condition holds: y lies
    strictly above a and above some placed atom, yet no z covering a with
    z <= y lies above a placed atom.
    """
    p, upmask, above = poset, poset._upmask, 0
    for b in placed:
        above |= upmask[b]
    ys = upmask[a] & above & ~(1 << p.index[a])
    for z in p.up[a]:  # no atom covers another, so z is no placed atom
        if above >> p.index[z] & 1:
            ys &= ~upmask[z]
    return p.elements[(ys & -ys).bit_length() - 1] if ys else None


class _Search:
    """Memoized search for recursive atom orderings; `step` holds the rules.

    generalized=False: the constraint set holds atoms that must form a
    prefix of the node's ordering (those covering an earlier sibling atom).
    generalized=True: the constraint set marks atoms lying above an earlier
    sibling atom; whenever a two-cover-high subinterval [u, w] contains a
    marked atom, its first atom in the ordering must be marked.
    """

    def __init__(self, poset: Poset, generalized: bool, budget: int):
        self.poset = poset
        self.generalized = generalized
        self.budget = budget
        self.nodes = 0
        self.memo = {}

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                "atom ordering search exceeded its node budget",
                nodes=self.nodes, budget=self.budget,
            )

    def leaf(self, u) -> bool:
        """True when every chain of [u, top] has length at most one."""
        return all(w == self.poset.top for w in self.poset.up[u])

    def step(self, u, constraint, placed, a):
        """The constraint of the child [a, top] when atom a of [u, top] is
        placed right after the atoms `placed`, or None when the rules forbid
        it."""
        p = self.poset
        done = set(placed)
        if not self.generalized:
            if not (a in constraint or constraint <= done):
                return None
        elif constraint and a not in constraint:
            for w in {w for x in p.up[u] for w in p.up[x] if p.leq(a, w)}:
                below = p.atoms_of(u, w)
                if done.isdisjoint(below) and not constraint.isdisjoint(below):
                    return None  # a would come first in [u, w] unmarked
        if _pair_witness(p, a, placed) is not None:
            return None
        if self.generalized:
            return frozenset(v for v in p.up[a] if any(p.lt(b, v) for b in placed))
        return frozenset(v for v in p.up[a] if any(b in p.down[v] for b in placed))

    def search(self, u, constraint: frozenset):
        """The certificate for [u, top] under `constraint`, or None; an
        interval waits on an explicit stack while its children are searched."""
        stack = [((u, constraint), self._atom_order(u, constraint))]
        while stack:
            key, solving = stack[-1]
            try:
                child = next(solving)
            except StopIteration as solved:
                self.memo[key] = solved.value
                stack.pop()
            else:
                stack.append((child, self._atom_order(*child)))
        return self.memo[u, constraint]

    def refuted(self):
        """(u, constraint) of the first interval [u, top] proved to have no
        atom order: every child it consulted has a certificate."""
        return next(key for key, tree in self.memo.items() if tree is None)

    def _atom_order(self, u, constraint):
        """Generator returning the certificate of the first atom order of [u,
        top] that `step` and the child certificates allow, or None; it yields
        each unsolved child and must be resumed once the memo holds it."""
        atoms = self.poset.up[u]
        if self.leaf(u):
            return RaoTree(u, atoms)
        steps, placed, waiting = {}, [], []

        def fits(i, mask):
            if (i, mask) not in steps:
                steps[i, mask] = self.step(u, constraint, placed, atoms[i])
            key = (atoms[i], steps[i, mask])
            if key[1] is None:
                return False
            if key not in self.memo:
                waiting.append(key)
                return None
            return self.memo[key] is not None

        def place(i, delta):
            if delta > 0:
                self._tick()
                placed.append(atoms[i])
            else:
                placed.pop()

        self._tick()
        for order in _orderings(len(atoms), fits, place):
            if order is None:
                yield waiting.pop()
                continue
            children, mask = {}, 0
            for i in order:
                children[atoms[i]] = self.memo[atoms[i], steps[i, mask]]
                mask |= 1 << i
            return RaoTree(u, tuple(atoms[i] for i in order), children)


def find_rao(poset: Poset, budget: int = DEFAULT_SEARCH_BUDGET):
    """A recursive atom ordering certificate, or None (certified absence)."""
    return _Search(poset, generalized=False, budget=budget).search(poset.bottom, frozenset())


def find_grao(poset: Poset, budget: int = DEFAULT_SEARCH_BUDGET):
    """A generalized recursive atom ordering certificate, or None."""
    return _Search(poset, generalized=True, budget=budget).search(poset.bottom, frozenset())


def verify_rao(poset: Poset, tree: RaoTree) -> bool:
    """Re-check of a supplied RAO certificate under the search's own rules."""
    return _verify(_Search(poset, False, DEFAULT_SEARCH_BUDGET), tree, poset.bottom, frozenset())


def verify_grao(poset: Poset, tree: RaoTree) -> bool:
    """Re-check of a supplied GRAO certificate under the search's own rules."""
    return _verify(_Search(poset, True, DEFAULT_SEARCH_BUDGET), tree, poset.bottom, frozenset())


def _verify(rules: _Search, tree, u, constraint) -> bool:
    """Re-apply `rules.step` to every prefix of the certificate's atom
    orders, visiting the nodes in preorder from an explicit stack."""
    stack = [({u: tree}, u, constraint)]
    while stack:
        siblings, u, constraint = stack.pop()
        if u not in siblings:
            if not rules.leaf(u):
                raise MalformedCertificateError(f"missing child certificate at {u!r}")
            continue
        tree = siblings[u]
        if not isinstance(tree, RaoTree) or tree.bottom != u:
            raise MalformedCertificateError(f"certificate node mismatch at {u!r}")
        order = tree.atom_order
        if sorted(order) != sorted(rules.poset.up[u]):
            raise MalformedCertificateError(
                f"atom order at {u!r} is not a permutation of the atoms"
            )
        if rules.leaf(u):
            continue
        constraints = [rules.step(u, constraint, order[:j], a) for j, a in enumerate(order)]
        if None in constraints:
            return False
        stack.extend((tree.children, a, child_constraint)
                     for a, child_constraint in reversed(list(zip(order, constraints))))
    return True


def rao_pair_obstructions(poset: Poset):
    """Witnesses that no two-atom prefix can begin a recursive atom ordering.

    Returns ordered triples (a, b, y): with a placed first, placing b second
    already fails because a, b < y while no z covering b with z <= y has a
    below it.  The first witness in canonical element order is reported for
    each ordered pair that admits one.
    """
    atoms = poset.atoms()
    return [(a, b, y) for a in atoms for b in atoms
            if a != b and (y := _pair_witness(poset, b, (a,))) is not None]
