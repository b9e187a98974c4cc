"""Chain-edge labelings and the lexicographic shellability verifiers.

A chain-edge labeling assigns an integer to every rooted cover relation
(r, x, y); an edge labeling is the special case where the label ignores the
root.  Label sequences are read bottom-to-top and compared in dictionary
order, which for integer tuples is exactly Python's tuple order (a proper
prefix precedes its extensions).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import itemgetter, or_

from ._record import Record
from .chains import (
    DEFAULT_ROOTED_COVER_BUDGET,
    ensure_budget,
    interval_chains,
    is_root,
    root_trie,
)
from .errors import (
    AmbiguousOrderError,
    InvalidInputError,
    InvalidRootError,
    MissingLabelError,
    entry_error,
    entry_root,
    unique_table,
)
from .poset import Poset, load_json_object

KINDS = ("el", "cl", "ec", "cc", "tcl", "self-consistent")


class CELabeling:
    """Total map from rooted cover relations to integer labels.

    `root` arguments are chains from the bottom element up to and including
    the lower element of the cover being labeled.  An edge labeling keeps
    one label per cover pair; a chain-edge labeling keeps one label per node
    of the poset's RootTrie: the label of the cover into that node.
    """

    def __init__(self, poset: Poset, edge_table=None, chain_table=None):
        if (edge_table is None) == (chain_table is None):
            raise ValueError("provide exactly one of edge_table / chain_table")
        self.poset = poset
        self._edges = dict(edge_table) if edge_table is not None else None
        self._lab_in = None
        if chain_table is not None:
            trie = root_trie(poset, None)
            self._lab_in = [None] * len(trie)
            for (r, u, v), lbl in chain_table.items():
                self._lab_in[trie.resolve(r, (u, v))[1]] = lbl

    @classmethod
    def _from_nodes(cls, poset: Poset, lab_in) -> "CELabeling":
        """Chain-edge labeling from its label per RootTrie node."""
        lab = cls(poset, chain_table={})
        lab._lab_in = lab_in
        return lab

    @classmethod
    def from_edges(cls, poset: Poset, table) -> "CELabeling":
        """Edge labeling: one integer per cover pair (u, v)."""
        table = {tuple(k): _integer(v) for k, v in table.items()}
        missing = [c for c in poset.covers if c not in table]
        if missing:
            raise MissingLabelError(f"no label for covers {missing}")
        if len(table) != len(poset.covers):
            raise InvalidInputError(f"labels for non-covers {table.keys() - set(poset.covers)}")
        return cls(poset, edge_table=table)

    @classmethod
    def from_chain_table(cls, poset: Poset, table,
                         budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> "CELabeling":
        """Chain-edge labeling: one integer per rooted cover (root, u, v)."""
        ensure_budget(poset, budget)
        labels = list(map(_integer, table.values()))  # each label is checked before any root
        lab, trie = cls(poset, chain_table={}), root_trie(poset, None)
        for (r, u, v), lbl in zip(table, labels):
            lab._lab_in[trie.resolve(r, (u, v))[1]] = lbl
        lab._by_node(trie)  # every rooted cover has a label
        return lab

    def label(self, root, u, v) -> int:
        if self._edges is not None:
            if not is_root(self.poset, root, u):
                raise InvalidRootError(f"{root!r} is not a root of {u!r}")
            try:
                return self._edges[(u, v)]
            except KeyError:
                raise MissingLabelError(f"no label for cover ({u!r}, {v!r})") from None
        lbl = self._lab_in[root_trie(self.poset, None).resolve(root, (u, v))[1]]
        if lbl is None:
            raise MissingLabelError(f"no label for rooted cover ({root!r}, {u!r}, {v!r})")
        return lbl

    def _by_node(self, trie) -> list:
        """The label of the cover into each node of the trie (None at node
        0); raises MissingLabelError when a rooted cover has none."""
        if self._edges is None:
            lab_in = self._lab_in
        else:
            edges, elem, parent = self._edges, trie.elem, trie.parent
            lab_in = [None] + [edges.get((elem[parent[v]], elem[v])) for v in range(1, len(trie))]
        if None in lab_in[1:]:
            v = lab_in.index(None, 1)
            raise MissingLabelError(f"no label for the rooted cover into {trie.chain(v)!r}")
        return lab_in

    def is_root_independent(self) -> bool:
        """True iff the label of every cover is constant over its roots."""
        return self._cover_labels() is not None

    def _cover_labels(self):
        """Cover pair -> its label when every cover's label is constant over
        its roots, else None."""
        if self._edges is not None:
            return self._edges
        trie = root_trie(self.poset, None)
        elem, parent, labels = trie.elem, trie.parent, {}
        for v, lbl in enumerate(self._lab_in):
            if v and labels.setdefault((elem[parent[v]], elem[v]), lbl) != lbl:
                return None
        return labels

    def relabeled(self, mapping) -> "CELabeling":
        """Apply an integer-to-integer map to every label."""
        if self._edges is not None:
            return CELabeling(self.poset, edge_table={
                k: mapping[v] for k, v in self._edges.items()
            })
        return CELabeling._from_nodes(
            self.poset, [None if v is None else mapping[v] for v in self._lab_in])


def _integer(label) -> int:
    """The label as an int.  A bool, or a number that int() would truncate,
    is rejected rather than read as another label."""
    try:
        value = int(label)
    except (TypeError, ValueError, OverflowError):  # OverflowError: infinity
        value = None
    if value is None or isinstance(label, bool) or (
            not isinstance(label, str) and value != label):
        raise InvalidInputError(f"label {label!r} is not an integer")
    return value


def label_sequence(lab: CELabeling, root, chain) -> tuple:
    """Labels along a saturated chain, with the root accumulating upward."""
    root = tuple(root)
    out = []
    for i in range(len(chain) - 1):
        out.append(lab.label(root, chain[i], chain[i + 1]))
        root = root + (chain[i + 1],)
    return tuple(out)


def lex_compare(s, t) -> int:
    """Dictionary order on label sequences: -1, 0 or 1."""
    s, t = tuple(s), tuple(t)
    if s == t:
        return 0
    return -1 if s < t else 1


def is_topological_ascent(lab: CELabeling, r, u, v, w) -> bool:
    """True iff the label pair of u < v < w strictly dictionary-precedes the
    label sequence of every other maximal chain of [u, w]_r.

    Only the chains of [u, w] are labeled, so no budget applies.
    """
    r = tuple(r)
    pair = (lab.label(r, u, v), lab.label(r + (v,), v, w))
    return all(pair < label_sequence(lab, r, c)
               for c in interval_chains(lab.poset, u, w) if c != (u, v, w))


class LabelingReport(Record):
    """Outcome of classify(): one flag per requested kind plus witnesses.

    Flags are None when the kind was not requested.  For every False flag,
    ``witnesses[kind]`` holds the first offending rooted interval (in
    canonical enumeration order) together with the offending chains.
    ``rooted_intervals`` counts the rooted intervals classify() decided, one
    per interval [x, y] under a root-independent labeling; it is a work
    counter, not a verdict, so equality ignores it.
    """

    _fields = ("is_el", "is_cl", "is_ec", "is_cc", "is_tcl",
               "is_self_consistent", "witnesses")

    def __init__(self, is_el=None, is_cl=None, is_ec=None, is_cc=None,
                 is_tcl=None, is_self_consistent=None, witnesses=None):
        self.is_el = is_el
        self.is_cl = is_cl
        self.is_ec = is_ec
        self.is_cc = is_cc
        self.is_tcl = is_tcl
        self.is_self_consistent = is_self_consistent
        self.witnesses = {} if witnesses is None else witnesses
        self.rooted_intervals = 0

    def flag(self, kind: str):
        return getattr(self, "is_" + kind.replace("-", "_"))


# The checks that fail each kind, in the order that picks its witness:
# "root" is root dependence, "sc" self-consistency.  EL and EC are CL and CC
# with root-independent labels, and CC is TCL with prefix-free sequences.
_FAILED_BY = {"tcl": ("tcl",), "cc": ("cc", "tcl"), "ec": ("root", "cc", "tcl"),
              "cl": ("cl",), "el": ("root", "cl"), "self-consistent": ("tcl", "sc")}


def classify(lab: CELabeling, poset: Poset, kinds=None,
             budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> LabelingReport:
    """Evaluate the requested labeling kinds on every rooted interval.

    kinds is an iterable drawn from {"el", "cl", "ec", "cc", "tcl",
    "self-consistent"}; by default all six are checked.  A kind holds iff
    no check of its _FAILED_BY row fails; its witness is the first failed
    check's, but {"not_tcl": True} for self-consistency failed on "tcl".

    _Intervals decides the rooted intervals by DP over covers: once per
    interval [x, y] for a root-independent labeling, which gives every
    rooted interval [x, y]_r the verdicts of [x, y], and once per RootTrie
    node of x otherwise.  Either way the budget is checked first, each
    witness is the first failure in canonical order, and every check of
    every requested kind runs, unless only EL and EC are asked of a
    root-dependent labeling: then root dependence fails them alone.
    """
    kinds = set(KINDS if kinds is None else kinds)
    if not kinds <= set(KINDS):
        raise ValueError(f"unknown labeling kinds: {sorted(kinds - set(KINDS))}")
    ensure_budget(poset, budget)

    report = LabelingReport()
    checks = {c for kind in kinds for c in _FAILED_BY[kind]}
    if kinds - {"el", "ec"} or (kinds and lab.is_root_independent()):
        failures = _Intervals(lab, poset).failures(checks, report)
    else:
        failures = {"root": {"root_independent": False}}
    # the table's order, not the set's, so the witnesses come in one order
    for kind, row in _FAILED_BY.items():
        if kind in kinds:
            check = next((c for c in row if c in failures), None)
            setattr(report, "is_" + kind.replace("-", "_"), check is None)
            if check is not None:
                report.witnesses[kind] = ({"not_tcl": True} if (kind, check) == (
                    "self-consistent", "tcl") else failures[check])
    return report


def _cmp(a, b, nxa, lxa, nxb, lxb) -> int:
    """Dictionary order of the label sequences from nodes a and b, read along
    next nodes nxa, nxb and labels lxa, lxb up to a next of None: -1, 0 or 1."""
    while a != b or nxa is not nxb:  # else the tails are one sequence
        na, nb = nxa[a], nxb[b]
        if na is None or nb is None:
            return (na is not None) - (nb is not None)
        if lxa[a] != lxb[b]:
            return -1 if lxa[a] < lxb[b] else 1
        a, b = na, nb
    return 0


class _Intervals:
    """A labeling decided interval by interval by DP over covers.

    The DP runs over integer nodes, each with its labeled covers up[v]
    (node, label), which a pass sorts by label (ties stay in canonical
    order), its element elem[v], and rank[v], its place in canonical
    (x, root) order; ranked lists the nodes in that order, and nodes_of[e]
    those of element e.
    This is the one place that picks the nodes.  For a root-independent
    labeling they are the poset's elements by canonical index, since the
    first root of x stands for all of them, and no RootTrie is built;
    otherwise they are the nodes of the poset's RootTrie, self.trie: node v
    is one root of x = elem[v], and [v, y] is the rooted interval [x, y]
    under it.  When the caller passes that trie, at[g] is the DP node of
    its node g.

    One pass per top y, in a linear extension, walks the nodes below y from
    the top and keeps for each of them, v:

    - nx[v], lx[v]: the cover that starts the dictionary-least label
      sequence lo(v, y) from v to y (None at y) and the label into it; two
      such sequences are compared by walking these pointers, only once
      their first labels tie; hx, hl likewise for the greatest, where
      self-consistency asks for it;
    - per CL or TCL, a row: (w, λ(v, w), the number of chains from v to y
      that start with w and rise at every cover pair, up to 2) per cover
      v < w <= y with such a chain, in label order.  So CL counts the chains
      that rise from v < w off the end of w's row, and stops at the first
      label not above λ(v, w) or at a count of 2: two entries at most.

    CL and TCL ask each rooted interval for exactly one such chain (CL
    also for the least chain to rise) and differ only in what rises:
    v < w < z rises for CL iff λ(v, w) < λ(w, z), and for TCL iff it is a
    topological ascent: iff w is the one atom of [v, z] where
    (λ(v, ·), lo(·, z)) is least, so that (λ(v, w), λ(w, z)) precedes
    every other chain's sequence; asc[v][z] is that atom when z covers it.
    The first failure of a kind is the least (rank of v, index of y); the
    passes stop counting a kind once no later y can precede it.

    A pass that checks something skips each fork-free top y, where [0̂, y]
    is one chain: y is 0̂, or covers one element and that is a fork-free
    top.  Every [v, y] then has one chain, so TCL, CC, self-consistency and
    the designated atoms hold there, and CL fails only at a descending cover
    pair, so a top with one at or below it is walked while CL is live.
    A skipped top y still gets asc[v][y] = w for v < w < y, which the TCL
    rows of later tops, chains() and ascends() read.  A pass with no check
    (bases) skips nothing.
    """

    def __init__(self, lab: CELabeling, poset: Poset, trie=None):
        self.poset = poset
        edges = lab._cover_labels()
        if edges is not None:
            self.trie = None
            missing = [c for c in poset.covers if edges.get(c) is None]
            if missing:
                raise MissingLabelError(f"no label for covers {missing}")
            index = poset.index
            self.elem = poset.elements
            self.nodes_of = {e: [i] for e, i in index.items()}
            self.up = [[(index[w], edges[(e, w)]) for w in poset.up[e]] for e in poset.elements]
            self.at = None if trie is None else [index[e] for e in trie.elem]
        else:
            self.trie = trie = root_trie(poset, None)
            self.at = range(len(trie))
            lab_in = lab._by_node(trie)
            self.elem, self.nodes_of = trie.elem, trie.nodes_of
            self.up = [[] for _ in lab_in]  # preorder, so children come in order
            for c in range(1, len(lab_in)):
                self.up[trie.parent[c]].append((c, lab_in[c]))
        self.ranked = [v for e in poset.elements for v in self.nodes_of[e]]
        self.rank = [0] * len(self.ranked)
        for i, v in enumerate(self.ranked):
            self.rank[v] = i
        self.asc = [{} for _ in self.ranked]
        # a linear extension, since an up-set shrinks along every cover;
        # ties stay in canonical order
        self.order = sorted(poset.elements, key=lambda e: -poset._upmask[e].bit_count())

    def failures(self, checks, report) -> dict:
        """Check -> witness of each failed check among checks ("tcl", "cc",
        "cl", "sc"; "root" fails on a root-dependent labeling), as deciding
        every rooted interval in canonical order finds them.  The tcl, cc
        and cl witnesses and the rooted-interval count go into report too;
        "sc" is checked only when "tcl" passes."""
        poset, elem, upmask = self.poset, self.elem, self.poset._upmask
        first, cand, late = self.passes(checks)
        failure = self.cc_failure() if "cc" in checks else None
        if failure is not None:
            first["cc"] = failure
        failed = {} if self.trie is None else {"root": {"root_independent": False}}
        for check, field in (("tcl", "ascending_chains"), ("cc", "label_sequences"),
                             ("cl", "increasing_chains")):
            if check in first:
                v, y = self.interval(first[check])
                failed[check] = report.witnesses[check] = {
                    "root": self.root(v), "x": elem[v], "y": y, field: self.chains(check, v, y)}
        # the rooted-interval count of deciding them in canonical order: the
        # intervals up to the last first failure, or all of them
        needed = [c for c in ("tcl", "cc", "cl") if c in checks]
        if any(c not in first for c in needed):
            report.rooted_intervals = sum(len(self.nodes_of[e]) * (m.bit_count() - 1)
                                          for e, m in upmask.items())
        else:
            def place(r, yi):  # of [v, y] among the rooted intervals
                x = elem[self.ranked[r]]
                return sum(upmask[elem[v]].bit_count() - 1 for v in self.ranked[:r]) + (
                    (upmask[x] ^ 1 << poset.index[x]) & (2 << yi) - 1).bit_count()
            report.rooted_intervals = max((place(*first[c]) for c in needed), default=0)
        witness = self.inconsistency(cand, late) if "sc" in checks and "tcl" not in first else None
        if witness is not None:
            failed["sc"] = witness
        return failed

    def passes(self, checks=(), atoms=None, designated=None, bases=None):
        """The first failing (rank of v, index of y) of "tcl", "cl" and,
        with designated, "atom", as far as checks asks; and for "sc", per
        node v, cand: atom a -> the y where a heads the least chains of
        [v, y], and late: pair (a, b) of equal labels -> the y' where a
        chain through a does not precede every chain through b, both as
        bitmasks over element indices.  At each [v, y] with two or more
        atoms, a dict atoms gets (v, y) -> the atom of its one ascending
        chain, and "atom" fails unless the nodes designated(v, y) head least
        chains.  A dict bases, top y -> the x whose [x, y] are asked for,
        limits the passes to those; with no check, asc then holds their ascent atoms.
        """
        poset, elem, nodes_of, up, asc = self.poset, self.elem, self.nodes_of, self.up, self.asc
        rank, order, index = self.rank, self.order, poset.index
        n, place = len(rank), {e: t for t, e in enumerate(order)}
        # under[t] (over[t]): the places in order of the elements below (at or
        # above) order[t], as a bitmask; low[t]: the least rank of a node below it
        under, low = [0] * len(order), [n] * len(order)
        for t, y in enumerate(order):
            for s in map(place.__getitem__, poset.down[y]):
                under[t] |= under[s] | 1 << s
                low[t] = min(low[t], low[s], rank[nodes_of[order[s]][0]])
        # settle[t]: the least (rank of v, index of y) of the intervals
        # [v, y] with y in order[t:]; the first node of an element ranks least
        settle, over = [(n, n)] * (len(order) + 1), [0] * len(order)
        for t in range(len(order) - 1, -1, -1):
            settle[t] = min(settle[t + 1], (low[t], index[order[t]]))
            if bases is not None:
                over[t] = reduce(or_, (over[place[w]] for w in poset.up[order[t]]), 1 << t)
        pending = [k for k in ("tcl", "cl") if k in checks] + ["atom"] * (designated is not None)
        first, cand, late, unsorted = {}, {}, {}, [True] * len(order)
        # self-consistency can fail only at a node two of whose covers have one label
        dup = self.tied if "sc" in checks else ()
        # lone[t]: y = order[t] is a fork-free top (0̂, or over one lower
        # cover, itself fork-free); rise[t]: the labels rise along [0̂, y];
        # into[t]: the label into y's one node
        lone, rise, into = [False] * len(order), [False] * len(order), [None] * len(order)
        for t, y in enumerate(order if pending else ()):
            d = poset.down[y]
            if not d:
                lone[t] = rise[t] = True
            elif len(d) == 1 and lone[place[d[0]]]:
                s, w, (z,) = place[d[0]], nodes_of[d[0]][0], nodes_of[y]
                into[t] = next(lbl for c, lbl in up[w] if c == z)
                lone[t], rise[t] = True, rise[s] and (into[s] is None or into[s] < into[t])
                if poset.down[d[0]]:  # its one ascent, which later passes read
                    asc[nodes_of[poset.down[d[0]][0]][0]][y] = w

        for t, y in enumerate(order):
            live = [k for k in pending if k not in first or first[k] >= settle[t]]
            if pending and not live:
                break
            if lone[t] and (rise[t] or "cl" not in live):  # no live check fails here
                continue
            m = under[t]  # the elements below y, or those in an [x, y] asked for
            if bases is not None:
                m &= reduce(or_, (over[place[x]] for x in bases.get(y, ())), 0)
            yi, bit = index[y], 1 << index[y]
            # per node: the cover that starts the least label sequence to y
            # (None at y) and the label into it; hx, hl the same for the greatest
            nx, lx = dict.fromkeys(nodes_of[y]), {}
            hx, hl, rising = dict(nx) if dup else None, {}, {}
            # per live kind: whether its rule is CL's, and node -> row
            rows = [(k, k == "cl", {}) for k in live if k != "atom"]
            bad = dict.fromkeys(live, n)
            atom = "atom" in bad
            while m:  # from the top; the nodes of one element are incomparable
                s = m.bit_length() - 1
                m ^= 1 << s
                if unsorted[s]:  # first walked: its nodes' covers by label
                    unsorted[s] = False
                    for v in nodes_of[order[s]]:
                        up[v].sort(key=itemgetter(1))
                for v in nodes_of[order[s]]:
                    covs = up[v]  # a single cover is below y
                    if len(covs) > 1:
                        covs = []
                        for c in up[v]:
                            if c[0] in nx:
                                covs.append(c)
                    w0, l0 = covs[0]
                    ties = len(covs) > 1 and covs[1][1] == l0
                    if ties:  # the first labels tie: walk on
                        ties = False
                        for w, lbl in covs[1:]:
                            if lbl != l0:
                                break
                            c = _cmp(w, w0, nx, lx, nx, lx)
                            if c < 0:
                                w0, ties = w, False
                            elif c == 0:
                                ties = True
                    nx[v], lx[v] = w0, l0
                    d = nx[w0]
                    if not ties and d is not None and nx[d] is None:  # y covers w0
                        asc[v][y] = w0
                    av = asc[v]
                    for k, cl, below in rows:  # the row of v, without the covers of count 0
                        row, count = [], 0
                        for w, lbl in covs:
                            c = 1
                            if w in below:  # w is below y
                                c = 0
                                if cl:  # from the end of w's row while its labels exceed lbl
                                    ws = below[w]
                                    if ws and ws[-1][1] > lbl:
                                        c = ws[-1][2]
                                        if c == 1 and len(ws) > 1 and ws[-2][1] > lbl:
                                            c += ws[-2][2]
                                else:
                                    for z, lz, cz in below[w]:
                                        if av.get(elem[z]) == w:
                                            c += cz
                                if not c:
                                    continue
                                if c > 2:
                                    c = 2
                            row.append((w, lbl, c))
                            count += c
                        below[v] = row
                        if cl:  # CL also asks the least chain to rise
                            rising[v] = d is None or (rising[w0] and l0 < lx[w0])
                        elif count == 1 and atoms is not None and len(covs) > 1:
                            atoms[(v, y)] = row[0][0]
                        if (count != 1 or cl and not rising[v]) and rank[v] < bad[k]:
                            bad[k] = rank[v]
                    if dup:
                        top, h0 = covs[-1]
                        for w, lbl in covs:
                            if lbl == h0 and _cmp(w, top, hx, hl, hx, hl) > 0:
                                top = w
                        hx[v], hl[v] = top, h0
                    if len(covs) < 2 or not (atom or v in dup):
                        continue
                    heads = (w0,) if not ties else [
                        w for w, lbl in covs if lbl == l0 and _cmp(w, w0, nx, lx, nx, lx) == 0]
                    if atom and rank[v] < bad["atom"] and any(
                            a not in heads for a in designated(v, y)):
                        bad["atom"] = rank[v]
                    if v in dup:
                        cv, lv = cand.setdefault(v, {}), late.setdefault(v, {})
                        for a in heads:
                            cv[a] = cv.get(a, 0) | bit
                        for a, la in covs:
                            for b, lb in covs:
                                if a != b and la == lb and _cmp(a, b, hx, hl, nx, lx) >= 0:
                                    lv[(a, b)] = lv.get((a, b), 0) | bit
            for k, r in bad.items():
                if r < n and (r, yi) < first.get(k, (n, n)):
                    first[k] = (r, yi)
        return first, cand, late

    @cached_property
    def tied(self) -> set:
        """The nodes two of whose covers have one label: the forks where CC
        and self-consistency can fail."""
        return {v for v, ws in enumerate(self.up) if len({lbl for _, lbl in ws}) < len(ws)}

    def cc_failure(self):
        """The first (rank of v, index of y) where two chains of [v, y] have
        label sequences one a prefix of (or equal to) the other, or None.

        Such chains part at a fork u >= v, where two covers share a label,
        and go on with equal labels until one is at y and the other at some
        b <= y.  From each fork the nodes reached by one label sequence are
        walked together as a state, each with its number of chains up to 2,
        while they hold two chains.  Per v in canonical order the forks above
        it not walked yet are walked; a state is walked once, and only while
        it can reach a y of lower index than the least failing y found."""
        poset, elem, up, tied = self.poset, self.elem, self.up, self.tied
        index, upmask = poset.index, poset._upmask
        if not tied:
            return None
        least = {e: (m & -m).bit_length() - 1 for e, m in upmask.items()}  # least index above e
        seen, done, n = set(), set(), len(index)
        for v in self.ranked:
            best, forks = n, [v]
            while forks:
                u = forks.pop()
                if u in done:
                    continue
                done.add(u)
                forks += [w for w, _ in up[u]]
                stack = [{u: 1}] if u in tied and least[elem[u]] < best else []
                while stack:
                    steps = {}  # label -> the next state
                    for p, m in stack.pop().items():
                        for w, lbl in up[p]:
                            state = steps.setdefault(lbl, {})
                            state[w] = min(2, state.get(w, 0) + m)
                    for state in steps.values():
                        if len(state) == 1 and 2 not in state.values():
                            continue  # one chain
                        key = frozenset(state.items())
                        if key in seen or min(least[elem[w]] for w in state) >= best:
                            continue
                        seen.add(key)
                        stack.append(state)
                        chains = {}  # element -> the chains of the state that end there
                        for w, m in state.items():
                            chains[elem[w]] = chains.get(elem[w], 0) + m
                        for y, c in chains.items():
                            i = index[y]
                            if i < best and (
                                    c > 1 or any(upmask[b] >> i & 1 for b in chains if b != y)):
                                best = i
            if best < n:  # the forks above v were all walked, or could not go lower
                return self.rank[v], best
        return None

    def inconsistency(self, cand, late):
        """The first place where a TCL-labeling is not self-consistent, or
        None: the first v, then the first y, a and b in canonical order,
        where a heads the least chains of [v, y] and a chain through a does
        not precede every chain through its sibling b in some [v, y'].
        Such atoms have equal labels: if λ(v, a) < λ(v, b) every chain
        through a precedes every chain through b, and if λ(v, a) > λ(v, b)
        a heads no least chains of an [v, y] that holds b."""
        elements, index, elem = self.poset.elements, self.poset.index, self.elem
        for v in sorted(late, key=self.rank.__getitem__):
            hits = []
            for (a, b), ys2 in late[v].items():  # ys: where b is an atom too
                ys = cand[v].get(a, 0) & self.poset._upmask[elem[b]]
                if ys:
                    hits.append((ys & -ys, index[elem[a]], index[elem[b]], ys2 & -ys2))
            if hits:
                y, ai, bi, y2 = min(hits)
                return {"root": self.root(v), "x": elem[v], "y": elements[y.bit_length() - 1],
                        "y2": elements[y2.bit_length() - 1],
                        "atom_first": elements[ai], "atom_other": elements[bi]}
        return None

    def ascends(self, u, v, w) -> bool:
        """Whether nodes u < v < w, each covering the last, are a topological
        ascent; asc must hold [u, w], as after a pass of every y."""
        return self.asc[u].get(self.elem[w]) == v

    def interval(self, key):
        """The node v and element y of a (rank of v, index of y)."""
        return self.ranked[key[0]], self.poset.elements[key[1]]

    def root(self, v) -> tuple:
        """The root of node v: its RootTrie chain, or else the root of elem[v]
        that comes first in canonical order, from the bottom the first cover
        below elem[v] at each step."""
        if self.trie is not None:
            return self.trie.chain(v)
        x, up, upmask = self.elem[v], self.poset.up, self.poset._upmask
        i, root = self.poset.index[x], [self.poset.bottom]
        while root[-1] != x:
            root.append(next(w for w in up[root[-1]] if upmask[w] >> i & 1))
        return tuple(root)

    def chains(self, kind, v, y) -> tuple:
        """The chains of [v, y] that the witness of kind lists, in
        lexicographic order: for "cl" and "tcl" those whose every cover pair
        rises under the kind's rule, for "descending" those with no ascent;
        for "cc" all of them with their label sequences, by sequence."""
        elem, up, upmask, i = self.elem, self.up, self.poset._upmask, self.poset.index[y]
        found, stack = [], [((v,), ())]
        while stack:  # preorder, so the chains come in lexicographic order
            nodes, seq = stack.pop()
            if kind != "cc" and len(seq) > 1:  # drop a chain at its first wrong pair
                rises = seq[-2] < seq[-1] if kind == "cl" else self.ascends(*nodes[-3:])
                if rises == (kind == "descending"):
                    continue
            if elem[nodes[-1]] == y:
                found.append((seq, tuple(map(elem.__getitem__, nodes))))
                continue
            stack.extend((nodes + (w,), seq + (lbl,))
                         for w, lbl in sorted(up[nodes[-1]], reverse=True)
                         if upmask[elem[w]] >> i & 1)
        return tuple(sorted(found)) if kind == "cc" else tuple(c for _, c in found)


def descent_set(lab: CELabeling, poset: Poset,
                budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> frozenset:
    """All rooted adjacent cover pairs (r, u, v, w) that are topological
    descents; the complement over the same domain are the ascents."""
    trie = root_trie(poset, budget)
    dp = _Intervals(lab, poset, trie)
    down = poset.down  # u < v < w covers: the intervals [u, w] of length two
    dp.passes(bases={w: [u for v in down[w] for u in down[v]] for w in poset.elements})
    at, elem, parent, depth, chain = dp.at, trie.elem, trie.parent, trie.depth, trie.chain
    return frozenset((chain(parent[h]), elem[parent[h]], elem[h], elem[k])
                     for k, h in enumerate(parent)
                     if depth[k] > 1 and not dp.ascends(at[parent[h]], at[h], at[k]))


def lex_order_max_chains(lab: CELabeling, poset: Poset, tie_break: bool = False):
    """Maximal chains sorted by dictionary order of their label sequences.

    Raises AmbiguousOrderError when two distinct chains share a full label
    sequence, unless tie_break is set, in which case canonical chain order
    breaks ties.
    """
    # labeling every maximal chain visits every root, so no budget applies
    trie = root_trie(poset, None)
    lab_in, parent = lab._by_node(trie), trie.parent
    path = [()]  # the label sequence of the root of each node
    for v in range(1, len(trie)):
        path.append(path[parent[v]] + (lab_in[v],))
    leaves = sorted(trie.nodes_of[poset.top], key=lambda d: (path[d], d))
    if not tie_break:
        for d1, d2 in zip(leaves, leaves[1:]):
            if path[d1] == path[d2]:
                raise AmbiguousOrderError(
                    f"chains {trie.chain(d1)!r} and {trie.chain(d2)!r} "
                    f"share label sequence {path[d1]!r}"
                )
    return tuple(trie.chain(d) for d in leaves)


# -- serialization -----------------------------------------------------

def labeling_to_json(lab: CELabeling) -> dict:
    if lab._edges is not None:
        labels = [{"from": u, "to": v, "label": lab._edges[(u, v)]}
                  for u, v in lab.poset.covers if (u, v) in lab._edges]
        return {"mode": "edge", "labels": labels}
    # preorder node order is the lexicographic order of the roots
    trie = root_trie(lab.poset, None)
    elem = trie.elem
    labels = [
        {"root": list(trie.chain(g)), "from": elem[g], "to": elem[c], "label": lab._lab_in[c]}
        for g in range(len(trie)) for c in trie.children(g)
        if lab._lab_in[c] is not None
    ]
    return {"mode": "chain-edge", "labels": labels}


def labeling_from_json(poset: Poset, data: dict,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> CELabeling:
    mode, table = _label_table(data)
    del data  # the decoded file, freed before the trie is built unless the caller holds it
    return _from_table(poset, mode, table, budget)


def load_labeling(poset: Poset, path,
                  budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> CELabeling:
    # no frame holds the decoded file once its entries are read
    return _from_table(poset, *_label_table(load_json_object(path)), budget)


def _label_table(data) -> tuple:
    """(mode, table) of a decoded labeling file, whose shape is checked
    here: the table maps (u, v) or (root, u, v) to a label."""
    if not isinstance(data, dict) or not isinstance(data.get("labels"), list):
        raise InvalidInputError('a labeling needs an object with a "labels" list')
    mode, labels = data.get("mode", "edge"), data["labels"]
    if mode not in ("edge", "chain-edge"):
        raise InvalidInputError(f"unknown labeling mode {mode!r}")
    try:
        if mode == "edge":
            table = unique_table("labeling", (((e["from"], e["to"]), e["label"]) for e in labels))
        else:
            table = unique_table("labeling", (
                ((entry_root("labeling", e), e["from"], e["to"]), e["label"]) for e in labels))
    except (KeyError, TypeError) as exc:
        keys = ("root",) * (mode == "chain-edge") + ("from", "to", "label")
        raise entry_error("labeling", labels, keys, exc) from None
    return mode, table


def _from_table(poset: Poset, mode, table, budget) -> CELabeling:
    if mode == "edge":
        return CELabeling.from_edges(poset, table)
    return CELabeling.from_chain_table(poset, table, budget)
