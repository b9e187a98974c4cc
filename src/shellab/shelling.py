"""Order complexes, shelling verification, restriction maps and wedge counts.

A complex holds each facet as a bitmask over the positions of its
`vertices` tuple.  Frozensets of vertices are built only where a function
hands them out: `OrderComplex.facets` and `faces`, `restriction_map`,
`brute_force_shellable` and `complex_to_json`.  A facet order may give each
facet as any iterable of its vertices, and may itself be an iterator: it is
read once, facet by facet, into one tuple of vertex positions per facet,
and the facet it names is found by its mask.

Shellings are checked in the nonpure sense: each facet after the first must
meet the union of its predecessors in a pure subcomplex of dimension one
less than the facet's own.  One kernel on vertex bitmasks decides this in
the restriction-set form (Björner & Wachs, "Shellable nonpure complexes and
posets I"): the order is a shelling exactly when no earlier facet contains
R(F_j), the vertices v of F_j with F_j - v inside an earlier facet.  The
cone vertices, those in every facet (0̂ and 1̂ of a full order complex),
skip the kernel: F_j - v inside F_k with v in F_k would put F_j inside
F_k, so no R(F_j) holds one.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, compress
from operator import and_, or_

from ._record import Record
from .chains import check_interval, root_trie, walk_chains
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
    another and that every vertex lies in some facet.  Each facet is held
    as a bitmask over the positions of `vertices`; `facets` builds their
    frozensets on each access.
    """

    __slots__ = ("vertices", "_masks")
    _fields = ("vertices", "facets")

    def __init__(self, vertices, facets):
        position = {v: i for i, v in enumerate(vertices)}
        try:
            indices = [tuple(map(position.__getitem__, f)) for f in facets]
        except KeyError:  # a facet vertex missing from `vertices`
            raise InvalidInputError("every vertex must lie in some facet") from None
        masks = _vertex_masks(indices, len(vertices))
        every = (1 << len(indices)) - 1
        for i, idx in enumerate(indices):
            # the facets containing facet i are the common bits of its vertices
            if reduce(and_, map(masks.__getitem__, idx), every) != 1 << i:
                raise InvalidInputError("facets must not contain one another")
        if not all(masks):
            raise InvalidInputError("every vertex must lie in some facet")
        self._set(vertices, tuple(map(_mask, indices)))

    @classmethod
    def _of_masks(cls, vertices, masks):
        """The complex of facet masks already known to be an antichain that
        covers every vertex, without the constructor's checks."""
        complex_ = object.__new__(cls)
        complex_._set(vertices, masks)
        return complex_

    def _set(self, vertices, masks):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_masks", masks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return self.vertices, self._masks

    def __hash__(self):
        return hash(self._values())

    @property
    def facets(self) -> tuple:
        """The facets as frozensets of vertices, in order."""
        return tuple(map(frozenset, _members(self.vertices, self._masks)))

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
        reached, grew = 1, True  # a bitmask of vertex positions
        while grew:
            grew = False
            for m in self._masks:
                if m & reached and m & ~reached:
                    reached |= m
                    grew = True
        return reached == (1 << len(self.vertices)) - 1

    def vertex_degrees(self) -> dict:
        """Vertex degrees of the 1-skeleton."""
        edges = {e for f in self.facets for e in map(frozenset, combinations(sorted(f), 2))}
        deg = {v: 0 for v in self.vertices}
        for e in edges:
            for v in e:
                deg[v] += 1
        return deg


def _mask(indices) -> int:
    """The bitmask of a tuple of positions."""
    return reduce(or_, map((1).__lshift__, indices), 0)


def _members(items, masks) -> list:
    """Per mask, the tuple of the items at its set bits."""
    bits = [1 << i for i in range(len(items))]
    return [tuple(compress(items, map(m.__and__, bits))) for m in masks]


def order_complex(poset: Poset, interval=None) -> OrderComplex:
    """The order complex of the poset, or of an open interval (x, y).

    With `interval=(x, y)` the facets are the maximal chains of [x, y]
    stripped of both endpoints; the full complex keeps the bounds (and is
    therefore a double cone).  Facets come in the order of
    `maximal_chains` (or `interval_chains`), one walk over the covers that
    builds no RootTrie, and only their masks are kept.
    """
    if interval is None:
        x, y = poset.bottom, poset.top
        vertices = tuple(poset.elements)
    else:
        x, y = interval
        check_interval(poset, x, y)
        vertices = tuple(e for e in poset.interval(x, y) if e not in (x, y))
        if not vertices:
            raise EmptyIntervalError(f"open interval ({x!r}, {y!r}) is empty")
    bit = {e: 1 << i for i, e in enumerate(vertices)}
    if interval is not None:
        # distinct maximal chains of [x, y] have distinct interiors
        bit[x] = bit[y] = 0
    # the bits of a chain's distinct vertices sum to their OR
    return OrderComplex._of_masks(vertices, tuple(
        sum(map(bit.__getitem__, c)) for c in walk_chains(poset, x, y)))


class ShellingResult(Record):
    _fields = ("ok", "first_violation")

    def __init__(self, ok, first_violation=None):
        self.ok = ok
        self.first_violation = first_violation  # (j, i) facet positions

    def __bool__(self):
        return self.ok


def _order_indices(complex_: OrderComplex, order) -> tuple:
    """(indices, cone): per facet of `order`, read in one pass as any
    iterable of its vertices, the tuple of its vertex positions outside the
    cone, and the tuple of the cone's positions (the vertices in every
    facet).  Raises InvalidInputError unless `order` names every facet of
    the complex exactly once."""
    cone = reduce(and_, complex_._masks, -1)
    position = {v: i for i, v in enumerate(complex_.vertices)}
    free = bytes(not cone >> i & 1 for i in range(len(position)))
    unplaced = set(complex_._masks)
    out = []
    try:
        for facet in order:
            idx = list(map(position.__getitem__, facet))  # freed tuples stay on a free list
            mask = _mask(idx)
            unplaced.remove(mask)  # a KeyError if named already or not a facet
            if mask.bit_count() != len(idx):  # a vertex named twice
                idx = dict.fromkeys(idx)
            out.append(tuple(filter(free.__getitem__, idx)))
    except (KeyError, TypeError):  # also an unknown vertex, or a facet that is no iterable
        raise InvalidInputError("order must be a permutation of the facets") from None
    if unplaced:
        raise InvalidInputError("order must be a permutation of the facets")
    return out, _members(range(len(free)), [cone])[0]


def _vertex_masks(facets, n) -> list:
    """Per vertex position below n, the bitmask of the positions of the
    facets (a list of tuples of vertex positions) containing it, ORed in
    blocks of 1024 facets and joined as bytes: ORing every bit into one
    growing int would copy that int each time."""
    rows = [bytearray() for _ in range(n)]
    for start in range(0, len(facets), 1024):
        masks, bit = [0] * n, 1
        for idx in facets[start:start + 1024]:
            for i in idx:
                masks[i] |= bit
            bit <<= 1
        for row, mask in zip(rows, masks):
            row += mask.to_bytes(128, "little")
    return [int.from_bytes(row, "little") for row in rows]


def _restriction(masks, facet, earlier):
    """(R, holders) for `facet`, a tuple of vertex positions, placed after
    the facets in bitmask `earlier`.

    v is in R when the AND of `earlier` with the masks of facet - v is
    nonzero (prefix and suffix ANDs give this for every v).  `holders` is the
    bitmask of earlier facets containing R: 0 exactly when the placement
    keeps a shelling.
    """
    suffix = [earlier]
    for v in reversed(facet):
        suffix.append(suffix[-1] & masks[v])
    suffix.reverse()
    restr, holders, prefix = [], earlier, -1
    for v, rest in zip(facet, suffix[1:]):
        if prefix & rest:
            restr.append(v)
            holders &= masks[v]
        prefix &= masks[v]
    return restr, holders


def is_shelling(complex_: OrderComplex, order) -> ShellingResult:
    """Nonpure shelling test.  A failure carries the first (j, i) such that
    no k < j has F_i & F_j <= F_k & F_j with |F_k & F_j| = |F_j| - 1; these
    i are exactly the earlier facets containing R(F_j).  Each facet of
    `order` may be any iterable of its vertices."""
    order, _ = _order_indices(complex_, order)
    masks = _vertex_masks(order, len(complex_.vertices))
    for j in range(1, len(order)):
        _, holders = _restriction(masks, order[j], (1 << j) - 1)
        if holders:
            return ShellingResult(False, (j, (holders & -holders).bit_length() - 1))
    return ShellingResult(True)


def restriction_map(complex_: OrderComplex, order) -> dict:
    """R(F_j) = vertices v of F_j with F_j - v contained in an earlier facet,
    keyed by the facet, both as frozensets.

    The new faces contributed at step j are exactly those containing R(F_j).
    Raises NotAShellingError when the order is not a shelling.
    """
    order, cone = _order_indices(complex_, order)
    masks = _vertex_masks(order, len(complex_.vertices))
    vertex = complex_.vertices.__getitem__
    out = {}
    for j, facet in enumerate(order):
        restr, holders = _restriction(masks, facet, (1 << j) - 1)
        if holders:
            raise NotAShellingError("facet order fails the shelling condition")
        out[frozenset(map(vertex, facet + cone))] = frozenset(map(vertex, restr))
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
    n, m = len(complex_._masks), len(complex_.vertices)
    if n > max_facets:
        raise BudgetExceededError(
            f"complex has {n} facets, brute-force cap is {max_facets}",
            facets=n, max_facets=max_facets,
        )
    indices = _members(range(m), complex_._masks)
    masks = _vertex_masks(indices, m)
    order = next(_orderings(
        n, lambda j, placed: not _restriction(masks, indices[j], placed)[1]), None)
    if order is None:
        return None
    facets = complex_.facets
    return tuple(facets[i] for i in order)


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
    dp.passes(bases=dict.fromkeys(poset.interval(x, y), (x,)))
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
        vertices = tuple(sorted(set().union(*listed)))
    except TypeError as exc:  # an unhashable vertex, or strings mixed with numbers
        raise InvalidInputError(f"unusable facet vertices: {exc}") from None
    return OrderComplex(vertices, listed)
