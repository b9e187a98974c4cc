"""Order complexes, shelling verification, restriction maps and wedge counts.

Shellings are checked in the nonpure sense: each facet after the first must
meet the union of its predecessors in a pure subcomplex of dimension one
less than the facet's own.  One kernel on vertex bitmasks decides this in
the restriction-set form (Björner & Wachs, "Shellable nonpure complexes and
posets I"): the order is a shelling exactly when no earlier facet contains
R(F_j), the vertices v of F_j with F_j - v inside an earlier facet.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_

from ._record import Record
from .chains import check_interval, interval_chains, maximal_chains, root_trie
from .errors import (
    AmbiguousRootError,
    BudgetExceededError,
    EmptyIntervalError,
    EulerMismatchError,
    InvalidInputError,
    NotAShellingError,
)
from .labeling import CELabeling, _Intervals
from .poset import Poset


class OrderComplex(Record):
    """A simplicial complex given by its facets (inclusion-maximal faces).

    Immutable and hashable; construction checks that no facet contains
    another and that every vertex lies in some facet.
    """

    _fields = ("vertices", "facets")

    def __init__(self, vertices, facets):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", facets)
        masks = _vertex_masks(self.facets)
        every = (1 << len(self.facets)) - 1
        for i, f in enumerate(self.facets):
            # the facets containing f are the common bits of its vertices
            if reduce(and_, map(masks.__getitem__, f), every) != 1 << i:
                raise InvalidInputError("facets must not contain one another")
        if masks.keys() != set(self.vertices):
            raise InvalidInputError("every vertex must lie in some facet")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash((self.vertices, self.facets))

    def faces(self):
        """All nonempty faces."""
        out = set()
        for f in self.facets:
            fs = sorted(f)
            for k in range(1, len(fs) + 1):
                out.update(map(frozenset, combinations(fs, k)))
        return out

    def euler_characteristic(self) -> int:
        """Unreduced Euler characteristic by direct face enumeration."""
        return sum((-1) ** (len(face) - 1) for face in self.faces())

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for f in self.facets:
                if v in f:
                    for w in f:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
        return len(seen) == len(self.vertices)

    def vertex_degrees(self) -> dict:
        """Vertex degrees of the 1-skeleton."""
        edges = {e for f in self.facets for e in map(frozenset, combinations(sorted(f), 2))}
        deg = {v: 0 for v in self.vertices}
        for e in edges:
            for v in e:
                deg[v] += 1
        return deg


def order_complex(poset: Poset, interval=None) -> OrderComplex:
    """The order complex of the poset, or of an open interval (x, y).

    With `interval=(x, y)` the facets are the maximal chains of [x, y]
    stripped of both endpoints; the full complex keeps the bounds (and is
    therefore a double cone).
    """
    if interval is None:
        facets = [frozenset(c) for c in maximal_chains(poset)]
        vertices = tuple(poset.elements)
        return OrderComplex(vertices, tuple(facets))
    x, y = interval
    check_interval(poset, x, y)
    inner = [e for e in poset.interval(x, y) if e not in (x, y)]
    if not inner:
        raise EmptyIntervalError(f"open interval ({x!r}, {y!r}) is empty")
    # distinct maximal chains of [x, y] have distinct interiors
    facets = tuple(frozenset(c[1:-1]) for c in interval_chains(poset, x, y))
    return OrderComplex(tuple(inner), facets)


class ShellingResult(Record):
    _fields = ("ok", "first_violation")

    def __init__(self, ok, first_violation=None):
        self.ok = ok
        self.first_violation = first_violation  # (j, i) facet positions

    def __bool__(self):
        return self.ok


def _check_order_is_permutation(complex_: OrderComplex, order):
    order = tuple(order)
    if sorted(order, key=sorted) != sorted(complex_.facets, key=sorted):
        raise InvalidInputError("order must be a permutation of the facets")
    return order


def _vertex_masks(facets) -> dict:
    """vertex -> bitmask of the positions of the facets containing it."""
    masks = {}
    for pos, facet in enumerate(facets):
        for v in facet:
            masks[v] = masks.get(v, 0) | 1 << pos
    return masks


def _restriction(masks, facet, earlier):
    """(R, holders) for `facet` placed after the facets in bitmask `earlier`.

    v is in R when the AND of `earlier` with the masks of facet - v is
    nonzero (prefix and suffix ANDs give this for every v).  `holders` is the
    bitmask of earlier facets containing R: 0 exactly when the placement
    keeps a shelling.
    """
    vs = tuple(facet)
    suffix = [earlier]
    for v in reversed(vs):
        suffix.append(suffix[-1] & masks[v])
    suffix.reverse()
    restr, holders, prefix = [], earlier, -1
    for v, rest in zip(vs, suffix[1:]):
        if prefix & rest:
            restr.append(v)
            holders &= masks[v]
        prefix &= masks[v]
    return frozenset(restr), holders


def is_shelling(complex_: OrderComplex, order) -> ShellingResult:
    """Nonpure shelling test.  A failure carries the first (j, i) such that
    no k < j has F_i & F_j <= F_k & F_j with |F_k & F_j| = |F_j| - 1; these
    i are exactly the earlier facets containing R(F_j)."""
    order = _check_order_is_permutation(complex_, order)
    masks = _vertex_masks(order)
    for j in range(1, len(order)):
        _, holders = _restriction(masks, order[j], (1 << j) - 1)
        if holders:
            return ShellingResult(False, (j, (holders & -holders).bit_length() - 1))
    return ShellingResult(True)


def restriction_map(complex_: OrderComplex, order) -> dict:
    """R(F_j) = vertices v of F_j with F_j - v contained in an earlier facet.

    The new faces contributed at step j are exactly those containing R(F_j).
    Raises NotAShellingError when the order is not a shelling.
    """
    order = _check_order_is_permutation(complex_, order)
    masks = _vertex_masks(order)
    out = {}
    for j, facet in enumerate(order):
        out[facet], holders = _restriction(masks, facet, (1 << j) - 1)
        if holders:
            raise NotAShellingError("facet order fails the shelling condition")
    return out


class HomotopyReport(Record):
    """Wedge summand counts per dimension, with an Euler cross-check."""

    _fields = ("wedge_counts", "euler_characteristic")

    def __init__(self, wedge_counts, euler_characteristic):
        self.wedge_counts = wedge_counts
        self.euler_characteristic = euler_characteristic

    def total_spheres(self) -> int:
        return sum(self.wedge_counts.values())


def homotopy_report(complex_: OrderComplex, order) -> HomotopyReport:
    """Counts of homology facets (R(F_j) = F_j) per dimension.

    A shelled complex is homotopy equivalent to a wedge with these summand
    counts; the unreduced Euler characteristic is cross-checked against them.
    """
    rmap = restriction_map(complex_, order)  # validates the shelling
    counts = {}
    for facet, restr in rmap.items():
        if restr == facet:
            d = len(facet) - 1
            counts[d] = counts.get(d, 0) + 1
    chi = complex_.euler_characteristic()
    predicted = 1 + sum((-1) ** d * k for d, k in counts.items())
    if chi != predicted:
        raise EulerMismatchError(
            f"euler characteristic {chi} disagrees with wedge counts {counts}"
        )
    return HomotopyReport(counts, chi)


def _orderings(n, fits, place=None):
    """Every ordering of range(n) in which each item fits after the items
    placed before it, as index tuples in lexicographic order.

    fits(i, placed_mask) must depend only on the bitmask of placed items;
    place(i, +1 / -1), when given, hears of each placement and undo.  fits
    may answer None while it waits on the caller: the search then yields
    None and asks again when resumed.  A placed set from which no ordering
    completes is not entered again, so the search is exponential in n, not
    factorial; its stack is a list, not Python's.
    """
    place = place or (lambda i, delta: None)
    dead, free, order, mask, completed = set(), list(range(n)), [], 0, 0
    frames = []  # per open depth: [next position in free, orderings completed on entry]
    while True:
        if len(frames) == len(order):  # order[-1] was just placed, or nothing yet
            if not free:
                completed += 1
                yield tuple(order)
            elif mask not in dead:
                frames.append([0, completed])
        if len(frames) > len(order):  # scan the open frame for a next item
            k = frames[-1][0]
            while k < len(free) and not (fit := fits(free[k], mask)):
                if fit is None:
                    yield None
                else:
                    k += 1
            if k < len(free):
                frames[-1][0] = k + 1
                i = free.pop(k)
                order.append(i)
                mask |= 1 << i
                place(i, 1)
                continue
            if frames.pop()[1] == completed:
                dead.add(mask)
        if not order:
            return
        i = order.pop()
        mask ^= 1 << i
        free.insert(frames[-1][0] - 1, i)  # back where its frame took it from
        place(i, -1)


def brute_force_shellable(complex_: OrderComplex, max_facets: int = 9):
    """Some shelling order, or None when provably none exists.

    Admissibility of appending a facet depends only on the set of earlier
    facets, so `_orderings` memoizes the failed prefix sets.  Complexes with
    more than `max_facets` facets are refused.
    """
    facets = complex_.facets
    n = len(facets)
    if n > max_facets:
        raise BudgetExceededError(
            f"complex has {n} facets, brute-force cap is {max_facets}",
            facets=n, max_facets=max_facets,
        )
    masks = _vertex_masks(facets)
    order = next(_orderings(
        n, lambda j, placed: not _restriction(masks, facets[j], placed)[1]), None)
    return None if order is None else tuple(facets[i] for i in order)


def descending_chains(poset: Poset, lab: CELabeling, x, y, root=None):
    """Maximal chains of [x, y] all of whose adjacent cover pairs are
    topological descents under the labeling.

    The root of x is inferred when unique; otherwise it must be supplied.
    """
    check_interval(poset, x, y)
    # a single query, so no budget applies to the trie that gives the root
    trie = root_trie(poset, None)
    if root is None:
        candidates = trie.nodes_of[x]
        if len(candidates) != 1:
            raise AmbiguousRootError(
                f"{x!r} has {len(candidates)} roots; pass one explicitly"
            )
        g = candidates[0]
    else:
        g, = trie.resolve(root, (x,))
    dp = _Intervals(lab, poset, trie)
    dp.passes()
    return list(dp.chains("descending", dp.at[g], y))


# -- serialization -----------------------------------------------------

def complex_to_json(complex_: OrderComplex) -> dict:
    return {"facets": [sorted(f) for f in complex_.facets]}


def complex_from_json(data: dict) -> OrderComplex:
    listed = data.get("facets") if isinstance(data, dict) else None
    if not isinstance(listed, (list, tuple)) or not all(
            isinstance(f, (list, tuple)) for f in listed):
        raise InvalidInputError('a complex needs an object with a "facets" list of vertex lists')
    try:
        facets = tuple(frozenset(f) for f in listed)
        vertices = tuple(sorted(set().union(*facets))) if facets else ()
    except TypeError as exc:  # an unhashable vertex, or strings mixed with numbers
        raise InvalidInputError(f"unusable facet vertices: {exc}") from None
    return OrderComplex(vertices, facets)
