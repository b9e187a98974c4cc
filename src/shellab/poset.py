"""Finite bounded posets stored as irredundant Hasse diagrams.

Elements are opaque identifiers (strings in files).  The canonical element
order is the input order; every enumeration downstream derives its
determinism from it.  All operations here are pure functions.
"""

from __future__ import annotations

import json

from .errors import (
    CycleDetectedError,
    InvalidInputError,
    InvalidPosetError,
    NotBoundedError,
    RedundantCoverError,
)


class Poset:
    """A finite bounded poset given by elements and cover relations.

    Construction validates the data (see :func:`build_poset`, the public
    factory) and derives the rest in one topological pass: the up-set of
    each element, the chain count of each [bottom, x] and the chain lengths.
    The order is kept as up-sets only, each one int whose bit i stands for
    elements[i]: "a <= y" is bit index[y] of `_upmask[a]`, and a mask's bits
    in increasing order are its elements in canonical order.
    The only field set afterwards is `_root_trie`, the RootTrie that
    `chains.root_trie` builds once its budget check passes.
    """

    __slots__ = (
        "elements", "covers", "index", "up", "down", "bottom", "top",
        "_upmask", "_path_counts", "_length", "_graded", "_root_trie",
    )

    def __init__(self, elements, covers):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise InvalidPosetError("element identifiers must be distinct")
        index = {e: i for i, e in enumerate(elements)}
        covers = [tuple(c) for c in covers]
        seen = set()
        for a, b in covers:
            if a not in index or b not in index:
                raise InvalidPosetError(f"cover ({a!r}, {b!r}) references unknown element")
            if a == b:
                raise CycleDetectedError(f"self-loop on {a!r}")
            if (a, b) in seen:
                raise InvalidPosetError(f"duplicate cover ({a!r}, {b!r})")
            seen.add((a, b))

        up = {e: [] for e in elements}
        down = {e: [] for e in elements}
        for a, b in covers:
            up[a].append(b)
            down[b].append(a)
        indeg = {e: len(vs) for e, vs in down.items()}
        ready = [e for e in elements if not indeg[e]]
        order = []  # topological, by Kahn's algorithm
        while ready:
            e = ready.pop()
            order.append(e)
            for w in up[e]:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        if len(order) != len(elements):
            raise CycleDetectedError("cover relation contains a directed cycle")
        upmask = {}
        for e in reversed(order):
            m = 1 << index[e]
            for w in up[e]:
                m |= upmask[w]
            upmask[e] = m
        for a, b in covers:
            for v in up[a]:
                if v != b and upmask[v] >> index[b] & 1:
                    raise RedundantCoverError(
                        f"cover ({a!r}, {b!r}) is implied via {v!r}"
                    )
        minima = [e for e in elements if not down[e]]
        maxima = [e for e in elements if not up[e]]
        if len(minima) != 1 or len(maxima) != 1:
            raise NotBoundedError(
                f"need unique bottom and top, found minima={minima} maxima={maxima}"
            )

        key = index.__getitem__
        self.elements = elements
        self.covers = tuple(sorted(covers, key=lambda c: (index[c[0]], index[c[1]])))
        self.index = index
        self.up = {e: tuple(sorted(vs, key=key)) for e, vs in up.items()}
        self.down = {e: tuple(sorted(vs, key=key)) for e, vs in down.items()}
        self.bottom, = minima
        self.top, = maxima
        self._upmask = upmask
        counts, lmin, lmax = {}, {}, {}  # per [bottom, e]: chains, shortest, longest
        for e in order:
            below = down[e]
            counts[e] = sum(map(counts.__getitem__, below)) or 1
            lmin[e] = 1 + min(map(lmin.__getitem__, below)) if below else 0
            lmax[e] = 1 + max(map(lmax.__getitem__, below)) if below else 0
        self._path_counts = counts
        self._length = lmax[self.top]
        self._graded = lmin[self.top] == self._length
        self._root_trie = None

    # -- order queries -------------------------------------------------

    def leq(self, a, b):
        """True iff a <= b in the derived order; False if b is no element."""
        i = self.index.get(b)
        return i is not None and self._upmask[a] >> i & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def upset(self, a):
        """All b with a <= b, as a frozenset built on demand."""
        return frozenset(members(self.elements, self._upmask[a]))

    def downset(self, a):
        """All b with b <= a, as a frozenset built on demand."""
        i, upmask = self.index[a], self._upmask
        return frozenset(b for b in self.elements if upmask[b] >> i & 1)

    def interval(self, x, y):
        """Elements of [x, y], sorted canonically."""
        i, upmask = self.index[y], self._upmask
        return tuple(e for e in members(self.elements, upmask[x]) if upmask[e] >> i & 1)

    def atoms(self):
        return self.up[self.bottom]

    def coatoms(self):
        return self.down[self.top]

    def atoms_of(self, x, y):
        """Atoms of the interval [x, y]: covers of x that are below y."""
        i, upmask = self.index[y], self._upmask
        return tuple(v for v in self.up[x] if upmask[v] >> i & 1)

    def path_count(self, x):
        """Number of maximal chains of [bottom, x]."""
        return self._path_counts[x]

    def length(self):
        """Length of the longest chain (bottom to top)."""
        return self._length

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((self.elements, self.covers))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"


def members(elements, mask) -> list:
    """The elements whose indices are the set bits of mask, in canonical order."""
    return [elements[i] for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def build_poset(elements, covers) -> Poset:
    """Validate and build a bounded poset from elements and cover pairs.

    Raises InvalidPosetError, CycleDetectedError, RedundantCoverError or
    NotBoundedError; a transitive cover is rejected rather than silently
    reduced so that input files are unambiguous Hasse data.
    """
    return Poset(elements, covers)


def is_graded(poset: Poset) -> bool:
    """True iff every maximal bottom-to-top chain has the same length."""
    return poset._graded


def dual(poset: Poset) -> Poset:
    """The order-dual: covers reversed, bottom and top swapping roles."""
    return build_poset(poset.elements, [(b, a) for a, b in poset.covers])


def ordinal_sum(lower: Poset, upper: Poset) -> Poset:
    """Stack `upper` on top of `lower` with one connecting cover.

    Every element of `lower` lies below every element of `upper`; the only
    new cover is lower.top < upper.bottom.  Identifiers of `upper` that
    collide with identifiers of `lower` get a ``*`` suffix (repeated until
    fresh), so the element count is always ``|lower| + |upper|``.
    """
    taken = set(lower.elements)
    rename = {}
    for e in upper.elements:
        name = e
        while name in taken:
            name = name + "*"
        rename[e] = name
        taken.add(name)
    elements = list(lower.elements) + [rename[e] for e in upper.elements]
    covers = list(lower.covers)
    covers.append((lower.top, rename[upper.bottom]))
    covers.extend((rename[a], rename[b]) for a, b in upper.covers)
    return build_poset(elements, covers)


def random_bounded_poset(seed: int, n: int, edge_probability: float) -> Poset:
    """Deterministic random bounded poset with n elements.

    Samples a random DAG on n-2 labeled internal nodes, takes its transitive
    reduction, then adjoins a bottom below all minimal and a top above all
    maximal internal nodes.  The same seed always yields the same poset.
    """
    import random  # here, so that importing the CLI does not load it

    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    k = n - 2
    internal = [f"v{i}" for i in range(1, k + 1)]
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < edge_probability:
                edges.add((internal[i], internal[j]))

    # transitive reduction: drop edges implied by a 2-step path
    succ = {v: {w for (u, w) in edges if u == v} for v in internal}
    reach = {}
    for v in reversed(internal):  # internal list is already topological
        r = set()
        for w in succ[v]:
            r |= {w} | reach[w]
        reach[v] = r
    reduced = {
        (a, b)
        for (a, b) in edges
        if not any(b in reach[v] for v in succ[a] if v != b)
    }

    covers = list(reduced)
    indeg = {v: 0 for v in internal}
    outdeg = {v: 0 for v in internal}
    for a, b in reduced:
        outdeg[a] += 1
        indeg[b] += 1
    for v in internal:
        if indeg[v] == 0:
            covers.append(("0hat", v))
        if outdeg[v] == 0:
            covers.append((v, "1hat"))
    if not internal:
        covers.append(("0hat", "1hat"))
    return build_poset(["0hat"] + internal + ["1hat"], covers)


# -- serialization -----------------------------------------------------

def poset_to_json(poset: Poset) -> dict:
    return {
        "elements": list(poset.elements),
        "covers": [list(c) for c in poset.covers],
    }


def poset_from_json(data: dict) -> Poset:
    """Build a poset from ``{"elements": [id, ...], "covers": [[a, b], ...]}``
    with string identifiers (lists or tuples); raises InvalidPosetError on
    any other shape."""
    if not isinstance(data, dict) or not {"elements", "covers"} <= data.keys():
        raise InvalidPosetError('a poset needs an object with "elements" and "covers"')
    elements, covers = data["elements"], data["covers"]
    if not isinstance(elements, (list, tuple)) or not all(isinstance(e, str) for e in elements):
        raise InvalidPosetError('"elements" must be a list of strings')
    if not isinstance(covers, (list, tuple)) or not all(
            isinstance(c, (list, tuple)) and len(c) == 2 and all(isinstance(e, str) for e in c)
            for c in covers):
        raise InvalidPosetError('"covers" must be a list of [lower, upper] string pairs')
    return build_poset(elements, [tuple(c) for c in covers])


def load_json_object(path, error=InvalidInputError) -> dict:
    """The JSON object in the file at path; raises `error` if it holds none."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise error(f"{path}: not JSON ({exc})") from None
        except RecursionError:
            raise error(f"{path}: not JSON (arrays or objects nested too deeply)") from None
    if not isinstance(data, dict):
        raise error(f"{path}: not a JSON object")
    return data


def load_poset(path) -> Poset:
    return poset_from_json(load_json_object(path, InvalidPosetError))


def to_dot(poset: Poset) -> str:
    """Hasse diagram in DOT form, edges directed bottom-to-top."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in poset.elements:
        lines.append(f'  "{e}";')
    for a, b in poset.covers:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
