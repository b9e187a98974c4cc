"""Search and verification for recursive atom orderings (RAO / GRAO).

Both searches are exhaustive backtracking over atom orderings of upper
intervals, with memoization keyed on (interval bottom, constraint set), so a
returned None is a certificate of absence.  The per-pair obstruction scan
mirrors the hand argument that rules out every two-atom prefix.
"""

from __future__ import annotations

from ._record import Record
from .errors import BudgetExceededError, MalformedCertificateError
from .poset import Poset

DEFAULT_SEARCH_BUDGET = 10 ** 6


class RaoTree(Record):
    """Certificate: an atom order for [bottom, top] plus child certificates.

    Children are keyed by atom; intervals whose longest chain has length one
    are leaves.
    """

    _fields = ("bottom", "atom_order", "children")

    def __init__(self, bottom, atom_order, children=None):
        self.bottom = bottom
        self.atom_order = atom_order
        self.children = {} if children is None else children

    def to_json(self):
        return {
            "bottom": self.bottom,
            "atom_order": list(self.atom_order),
            "children": {a: t.to_json() for a, t in self.children.items()},
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            bottom=data["bottom"],
            atom_order=tuple(data["atom_order"]),
            children={a: cls.from_json(t) for a, t in data["children"].items()},
        )


def _interval_lengths(poset: Poset):
    """Longest chain length of [u, top] for every u, by reverse topological DP."""
    lengths = {poset.top: 0}

    def length(u):
        if u not in lengths:
            lengths[u] = 1 + max(length(w) for w in poset.up[u])
        return lengths[u]

    for e in poset.elements:
        length(e)
    return lengths


def _pair_condition_ok(poset: Poset, atom_j, placed) -> bool:
    """Ordering condition on atom pairs, checked when atom_j is placed after
    `placed`: every y strictly above atom_j and some placed atom needs a
    witness z covering atom_j with z <= y and a placed atom strictly below z.
    """
    if not placed:
        return True
    placed_ups = set()
    for a in placed:
        placed_ups |= poset.upset(a)
    for y in poset.upset(atom_j) & placed_ups:
        if y == atom_j:
            continue
        for z in poset.up[atom_j]:
            if poset.leq(z, y) and any(poset.lt(a, z) for a in placed):
                break
        else:
            return False
    return True


class _Search:
    """Backtracking over recursive atom orderings.

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
        self.lengths = _interval_lengths(poset)
        # elements exactly two cover steps above u, per u
        self.two_above = {
            u: tuple(dict.fromkeys(
                w for x in poset.up[u] for w in poset.up[x]
            ))
            for u in poset.elements
        }

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                "atom ordering search exceeded its node budget",
                nodes=self.nodes, budget=self.budget,
            )

    def _first_atom_restriction_ok(self, u, candidate, placed_set, marked):
        if candidate in marked:
            return True
        p = self.poset
        for w in self.two_above[u]:
            if not p.leq(candidate, w):
                continue
            atoms_w = [a for a in p.up[u] if p.leq(a, w)]
            if any(a in placed_set for a in atoms_w):
                continue  # candidate would not be first in [u, w]
            if any(a in marked for a in atoms_w):
                return False
        return True

    def search(self, u, constraint: frozenset):
        key = (u, constraint)
        if key in self.memo:
            return self.memo[key]
        p = self.poset
        if self.lengths[u] <= 1:
            tree = RaoTree(u, tuple(p.up[u]))
        else:
            tree = self._order_atoms(u, constraint, [], set(), {})
        self.memo[key] = tree
        return tree

    def _order_atoms(self, u, constraint, placed, placed_set, children):
        self._tick()
        p = self.poset
        atoms = p.up[u]
        if len(placed) == len(atoms):
            return RaoTree(u, tuple(placed), dict(children))

        remaining = [a for a in atoms if a not in placed_set]
        if not self.generalized and not constraint <= placed_set:
            candidates = [a for a in remaining if a in constraint]
        else:
            candidates = remaining

        for a in candidates:
            if not _pair_condition_ok(p, a, placed):
                continue
            if self.generalized and not self._first_atom_restriction_ok(
                    u, a, placed_set, constraint):
                continue
            if self.generalized:
                child_constraint = frozenset(
                    v for v in p.up[a] if any(p.lt(b, v) for b in placed)
                )
            else:
                child_constraint = frozenset(
                    v for v in p.up[a] if any(b in p.down[v] for b in placed)
                )
            child = self.search(a, child_constraint)
            if child is None:
                continue
            placed.append(a)
            placed_set.add(a)
            children[a] = child
            found = self._order_atoms(u, constraint, placed, placed_set, children)
            if found is not None:
                return found
            placed.pop()
            placed_set.remove(a)
            del children[a]
        return None

    def run(self):
        return self.search(self.poset.bottom, frozenset())


def find_rao(poset: Poset, budget: int = DEFAULT_SEARCH_BUDGET):
    """A recursive atom ordering certificate, or None (certified absence)."""
    return _Search(poset, generalized=False, budget=budget).run()


def find_grao(poset: Poset, budget: int = DEFAULT_SEARCH_BUDGET):
    """A generalized recursive atom ordering certificate, or None."""
    return _Search(poset, generalized=True, budget=budget).run()


def verify_rao(poset: Poset, tree: RaoTree) -> bool:
    """Independent re-check of a supplied RAO certificate."""
    return _verify(poset, tree, poset.bottom, frozenset(),
                   generalized=False, lengths=_interval_lengths(poset))


def verify_grao(poset: Poset, tree: RaoTree) -> bool:
    return _verify(poset, tree, poset.bottom, frozenset(),
                   generalized=True, lengths=_interval_lengths(poset))


def _verify(poset, tree, u, constraint, generalized, lengths) -> bool:
    if not isinstance(tree, RaoTree) or tree.bottom != u:
        raise MalformedCertificateError(f"certificate node mismatch at {u!r}")
    atoms = poset.up[u]
    if sorted(tree.atom_order) != sorted(atoms):
        raise MalformedCertificateError(
            f"atom order at {u!r} is not a permutation of the atoms"
        )
    if lengths[u] <= 1:
        return True

    order = tree.atom_order
    if not generalized:
        k = len(constraint)
        if set(order[:k]) != set(constraint):
            return False
    else:
        checker = _Search(poset, generalized=True, budget=DEFAULT_SEARCH_BUDGET)
        placed_set = set()
        for a in order:
            if not checker._first_atom_restriction_ok(u, a, placed_set, constraint):
                return False
            placed_set.add(a)

    placed = []
    for a in order:
        if not _pair_condition_ok(poset, a, placed):
            return False
        placed.append(a)

    for j, a in enumerate(order):
        if a not in tree.children:
            if lengths[a] > 1:
                raise MalformedCertificateError(f"missing child certificate at {a!r}")
            continue
        earlier = order[:j]
        if generalized:
            child_constraint = frozenset(
                v for v in poset.up[a] if any(poset.lt(b, v) for b in earlier)
            )
        else:
            child_constraint = frozenset(
                v for v in poset.up[a] if any(b in poset.down[v] for b in earlier)
            )
        if not _verify(poset, tree.children[a], a, child_constraint,
                       generalized, lengths):
            return False
    return True


def rao_pair_obstructions(poset: Poset):
    """Witnesses that no two-atom prefix can begin a recursive atom ordering.

    Returns ordered triples (a, b, y): with a placed first, placing b second
    already fails because a, b < y while no z covering b with z <= y has a
    below it.  The first witness in canonical element order is reported for
    each ordered pair that admits one.
    """
    p = poset
    key = p.index.__getitem__
    out = []
    atoms = p.atoms()
    for a in atoms:
        for b in atoms:
            if a == b:
                continue
            commons = sorted((p.upset(a) & p.upset(b)) - {a, b}, key=key)
            for y in commons:
                witnessed = any(
                    p.leq(z, y) and p.lt(a, z) for z in p.up[b]
                )
                if not witnessed:
                    out.append((a, b, y))
                    break
    return out
