"""Chain-edge labelings and the lexicographic shellability verifiers.

A chain-edge labeling assigns an integer to every rooted cover relation
(r, x, y); an edge labeling is the special case where the label ignores the
root.  Label sequences are read bottom-to-top and compared in dictionary
order, which for integer tuples is exactly Python's tuple order (a proper
prefix precedes its extensions).
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .chains import (
    DEFAULT_ROOTED_COVER_BUDGET,
    ensure_budget,
    interval_chains,
    root_trie,
    strictly_above,
)
from .errors import (
    AmbiguousOrderError,
    InvalidInputError,
    MissingLabelError,
    entry_error,
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
        lab = cls(poset, chain_table={k: _integer(v) for k, v in table.items()})
        lab._by_node(root_trie(poset, None))  # every rooted cover has a label
        return lab

    def label(self, root, u, v) -> int:
        if self._edges is not None:
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
        if self._edges is not None:
            return True
        trie = root_trie(self.poset, None)
        elem, parent = trie.elem, trie.parent
        seen = {}
        return all(seen.setdefault((elem[parent[v]], elem[v]), lbl) == lbl
                   for v, lbl in enumerate(self._lab_in) if v)

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


class _Verifier:
    """One labeling resolved to tables indexed by the nodes of the RootTrie.

    classify() takes this path for root-dependent labelings only; the
    chain-level callers (rfas_from_tcl, descent_set, lex_order_max_chains,
    descending_chains, is_compatible) take it for every labeling.

    lab_in[v] is the label of the cover into node v under the root of its
    parent, and path[v] the label sequence of the root of v.  The chains of
    one rooted interval all extend the same root, so their full paths compare
    (and are prefixes of one another) exactly as their own label sequences
    path[v][depth[g]:] are.

    asc[k] tells whether the cover pair ending at node k is a topological
    ascent under the root two steps up.  last_descent[v] (last_nonincrease[v])
    is the depth where the last topological descent (last non-increasing
    label pair) on the root of v starts, or -1: a chain from node g up to
    node v is topologically ascending iff last_descent[v] < depth[g], and
    strictly increasing iff last_nonincrease[v] < depth[g].

    rep[g] is the node whose subtree decides the ascents at node g: node d
    under g is node d - g + g0 under the first node g0 of elem[g], and a
    root-independent labeling gives both one label, so rep[g] = g0; else g.
    """

    def __init__(self, lab: CELabeling, poset: Poset,
                 budget: int | None = DEFAULT_ROOTED_COVER_BUDGET):
        self.lab = lab
        self.poset = poset
        self.trie = trie = root_trie(poset, budget)
        self.lab_in = lab_in = lab._by_node(trie)
        parent = trie.parent
        path = [()]
        for v in range(1, len(trie)):
            path.append(path[parent[v]] + (lab_in[v],))
        self.path = path

    @cached_property
    def rep(self):
        trie = self.trie
        if not self.lab.is_root_independent():
            return range(len(trie))
        nodes_of = trie.nodes_of
        return [nodes_of[e][0] for e in trie.elem]

    @cached_property
    def asc(self) -> list:
        trie, lab_in, path, rep = self.trie, self.lab_in, self.path, self.rep
        parent, depth, elem = trie.parent, trie.depth, trie.elem
        asc = [True] * len(trie)
        for k in range(len(trie)):
            if depth[k] < 2:
                continue
            h = parent[k]
            g = parent[h]
            if rep[g] != g:  # k - g + rep[g] < k, so it is already decided
                asc[k] = asc[k - g + rep[g]]
                continue
            others = trie.within(g, elem[k])
            if len(others) > 1:
                pair, dg = (lab_in[h], lab_in[k]), depth[g]
                # a 3-label prefix decides the comparison with a label pair
                asc[k] = all(pair < path[d][dg:dg + 3] for d in others if d != k)
        return asc

    @cached_property
    def last_descent(self) -> list:
        return self._last_break(self.asc)

    @cached_property
    def last_nonincrease(self) -> list:
        lab_in, parent = self.lab_in, self.trie.parent
        return self._last_break(
            [d < 2 or lab_in[parent[v]] < lab_in[v] for v, d in enumerate(self.trie.depth)])

    def _last_break(self, ok) -> list:
        parent, depth = self.trie.parent, self.trie.depth
        out = [-1] * len(ok)
        for v in range(1, len(ok)):
            out[v] = out[parent[v]] if ok[v] else depth[v] - 2
        return out

    def decided(self):
        """(g, x, above) per node g, in canonical order: x is elem[g] and
        above the elements y > x."""
        for x in self.poset.elements:
            above = strictly_above(self.poset, x)
            for g in self.trie.nodes_of[x]:
                yield g, x, above

    def intervals(self):
        """(g, x, y, ds) per rooted interval, in canonical order: ds are the
        end nodes of the chains of [x, y] under node g."""
        within = self.trie.within
        return ((g, x, y, within(g, y)) for g, x, above in self.decided() for y in above)

    def chains(self, g, ds) -> tuple:
        """The chains from node g up to each node of ds, as tuples."""
        dg = self.trie.depth[g]
        return tuple(self.trie.chain(d)[dg:] for d in ds)


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


def classify(lab: CELabeling, poset: Poset, kinds=None,
             budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> LabelingReport:
    """Evaluate the requested labeling kinds on every rooted interval.

    kinds is an iterable drawn from {"el", "cl", "ec", "cc", "tcl",
    "self-consistent"}; by default all six are checked.  EL and EC
    additionally require the labeling to be root-independent.

    A root-independent labeling gives every rooted interval [x, y]_r the
    verdicts of [x, y], so _Intervals decides each [x, y] once, without the
    RootTrie; a root-dependent one goes through _Verifier, rooted interval
    by rooted interval.  Either way the budget is checked first, and each
    witness is the first failure in canonical order.
    """
    if kinds is None:
        kinds = KINDS
    kinds = set(kinds)
    unknown = kinds - set(KINDS)
    if unknown:
        raise ValueError(f"unknown labeling kinds: {sorted(unknown)}")
    if budget is not None:
        ensure_budget(poset, budget)

    report = LabelingReport()
    need_tcl = bool(kinds & {"tcl", "cc", "ec", "self-consistent"})
    need_cc = bool(kinds & {"cc", "ec"})
    need_cl = bool(kinds & {"cl", "el"})
    need_sc = "self-consistent" in kinds
    root_indep = lab.is_root_independent()
    if root_indep:
        tcl_ok, cc_ok, cl_ok, inconsistent = _Intervals(lab, poset).classify(
            report, need_tcl, need_cc, need_cl, need_sc)
    elif kinds <= {"el", "ec"}:
        # both fail on root dependence alone, whatever the intervals say
        tcl_ok = cc_ok = cl_ok = False
        inconsistent = None
    else:
        tcl_ok, cc_ok, cl_ok, inconsistent = _classify_rooted(
            _Verifier(lab, poset, budget), report, need_tcl, need_cc, need_cl, need_sc)

    if "tcl" in kinds:
        report.is_tcl = tcl_ok
    if "cc" in kinds:
        report.is_cc = tcl_ok and cc_ok
        if not tcl_ok:
            report.witnesses.setdefault("cc", report.witnesses.get("tcl", {}))
    if "ec" in kinds:
        report.is_ec = tcl_ok and cc_ok and root_indep
        if not root_indep:
            report.witnesses.setdefault("ec", {"root_independent": False})
        elif not (tcl_ok and cc_ok):
            report.witnesses.setdefault(
                "ec", report.witnesses.get("cc", report.witnesses.get("tcl", {})))
    if "cl" in kinds:
        report.is_cl = cl_ok
    if "el" in kinds:
        report.is_el = cl_ok and root_indep
        if not root_indep:
            report.witnesses.setdefault("el", {"root_independent": False})
        elif not cl_ok:
            report.witnesses.setdefault("el", report.witnesses.get("cl", {}))

    if need_sc:
        witness = inconsistent if tcl_ok else {"not_tcl": True}
        report.is_self_consistent = witness is None
        if witness is not None:
            report.witnesses.setdefault("self-consistent", witness)

    return report


def _classify_rooted(ver: _Verifier, report, need_tcl, need_cc, need_cl, need_sc):
    """(tcl_ok, cc_ok, cl_ok, self-consistency witness or None), deciding
    every rooted interval in canonical order; the first failure of each kind
    goes to report.witnesses."""
    trie, path, depth = ver.trie, ver.path, ver.trie.depth
    descent = ver.last_descent if need_tcl else None
    nonincrease = ver.last_nonincrease if need_cl else None

    # a kind that is not needed starts failed, so the loop skips it and
    # stops once every needed kind has failed; its flag is never read
    tcl_ok, cc_ok, cl_ok = need_tcl, need_cc, need_cl
    for g, x, y, ds in ver.intervals():
        if not (tcl_ok or cc_ok or cl_ok):
            break
        report.rooted_intervals += 1
        dg = depth[g]

        if tcl_ok:
            ascending = [d for d in ds if descent[d] < dg]
            if len(ascending) != 1:
                tcl_ok = False
                report.witnesses["tcl"] = {
                    "root": trie.chain(g), "x": x, "y": y,
                    "ascending_chains": ver.chains(g, ascending),
                }

        if cc_ok and len(ds) > 1:
            # sorted, a sequence that is a prefix of (or equal to) another
            # is a prefix of its successor
            ordered = sorted(path[d] for d in ds)
            if any(s == t[:len(s)] for s, t in zip(ordered, ordered[1:])):
                cc_ok = False
                report.witnesses["cc"] = {
                    "root": trie.chain(g), "x": x, "y": y,
                    "label_sequences": tuple(sorted(zip(
                        (path[d][dg:] for d in ds), ver.chains(g, ds)))),
                }

        if cl_ok:
            increasing = [d for d in ds if nonincrease[d] < dg]
            if not (len(increasing) == 1 and (
                    len(ds) == 1 or path[increasing[0]] == min(path[d] for d in ds))):
                cl_ok = False
                report.witnesses["cl"] = {
                    "root": trie.chain(g), "x": x, "y": y,
                    "increasing_chains": ver.chains(g, increasing),
                }
    return tcl_ok, cc_ok, cl_ok, _self_consistency(ver) if need_sc and tcl_ok else None


def _self_consistency(ver: _Verifier):
    """The first place where a TCL-labeling is not self-consistent, or None.

    It is self-consistent when atoms of lexicographically first chains stay
    ahead of their sibling atoms in every other interval over the same
    root."""
    trie, path, elem = ver.trie, ver.path, ver.trie.elem
    for g, x, above in ver.decided():
        # per top y': lex bounds of the chains through each atom, from one
        # scan of the subtree of each atom's node
        bounds = {yp: {} for yp in above}
        for c in trie.children(g):
            seqs = {}
            for d in range(c, trie.end[c]):
                seqs.setdefault(elem[d], []).append(path[d])
            for yp, ss in seqs.items():
                bounds[yp][elem[c]] = (min(ss), max(ss))
        # first y' where the chains through a do not all precede those
        # through b, per atom pair (a, b)
        late = {}
        for y in above:
            per_atom = bounds[y]
            if len(per_atom) < 2:
                continue
            best = min(lo for lo, _ in per_atom.values())
            for a, (lo, _) in per_atom.items():
                if lo != best:
                    continue
                for b in per_atom:
                    if b == a:
                        continue
                    if (a, b) not in late:
                        late[(a, b)] = next((
                            yp for yp in above
                            if a in bounds[yp] and b in bounds[yp]
                            and not bounds[yp][a][1] < bounds[yp][b][0]), None)
                    if late[(a, b)] is not None:
                        return {
                            "root": trie.chain(g), "x": x, "y": y, "y2": late[(a, b)],
                            "atom_first": a, "atom_other": b,
                        }
    return None


def _lex_cmp(s, t) -> int:
    """Dictionary order of two nested label sequences (label, rest), with ()
    the empty one: -1, 0 or 1.  A loop, where tuple comparison would recurse
    once per common label."""
    while s is not t:
        if not (s and t):
            return bool(s) - bool(t)
        if s[0] != t[0]:
            return -1 if s[0] < t[0] else 1
        s, t = s[1], t[1]
    return 0


class _Intervals:
    """A root-independent labeling decided once per interval [x, y] by DP
    over covers, without the RootTrie.

    One pass per top y, in a linear extension, walks the down-set of y from
    the top and keeps for each element v below y:

    - lo[v] (hi[v]): the dictionary-least (-greatest) label sequence from v
      to y as nested pairs (label, rest) ending in (), which compare like
      the flat sequences and share their tails;
    - top1[v] >= top2[v]: the two largest first labels, with multiplicity,
      of the strictly increasing chains from v to y, which tell how many of
      them start above a given label, up to 2;
    - tops[v]: per cover v < w <= y, how many topologically ascending
      chains from v to y start with it, up to 2.

    u < v < w is a topological ascent iff (λ(u, v), λ(v, w)) precedes the
    sequence of every other chain of [u, w], that is iff v is the one atom
    of [u, w] where (λ(u, ·), lo(·, w)) is least; asc[u][w] is that atom
    when w covers it.  Failures are kept per pass as a bitmask over the
    canonical index of x, so the first failure in canonical order is a
    lowest set bit; the passes stop once no later y can precede it.
    """

    def __init__(self, lab: CELabeling, poset: Poset):
        edges = lab._edges
        if edges is None:  # one label per cover pair, read off the trie
            trie = root_trie(poset, None)
            elem, parent = trie.elem, trie.parent
            edges = {(elem[parent[v]], elem[v]): lbl for v, lbl in enumerate(lab._lab_in) if v}
        missing = [c for c in poset.covers if edges.get(c) is None]
        if missing:
            raise MissingLabelError(f"no label for covers {missing}")
        self.poset = poset
        self.edges = edges
        self.up = {v: [(w, edges[(v, w)]) for w in ws] for v, ws in poset.up.items()}
        self.asc = {v: {} for v in poset.elements}
        # a linear extension, since an up-set shrinks along every cover;
        # ties stay in canonical order
        self.order = sorted(poset.elements, key=lambda e: -len(poset.upset(e)))

    def classify(self, report, need_tcl, need_cc, need_cl, need_sc):
        """(tcl_ok, cc_ok, cl_ok, self-consistency witness or None), as
        _classify_rooted gives them for the labeling's rooted intervals."""
        poset = self.poset
        first, cand, late = self.passes(need_tcl, need_cl, need_sc)
        if need_cc:
            failure = self.cc_failure()
            if failure is not None:
                first["cc"] = failure
        for kind, field in (("tcl", "ascending_chains"), ("cc", "label_sequences"),
                            ("cl", "increasing_chains")):
            if kind in first:
                x, y = (poset.elements[i] for i in first[kind])
                report.witnesses[kind] = {"root": self.first_root(x), "x": x, "y": y,
                                          field: self.chains(kind, x, y)}
        # the rooted-interval count _classify_rooted would reach: the
        # intervals up to the last first failure, or all of them
        above = [len(poset.upset(x)) - 1 for x in poset.elements]
        needed = [k for k, need in (("tcl", need_tcl), ("cc", need_cc), ("cl", need_cl)) if need]
        if any(k not in first for k in needed):
            report.rooted_intervals = sum(above)
        else:
            def place(xi, yi):  # of [x, y] among the intervals in canonical order
                x = poset.elements[xi]
                return sum(above[:xi]) + sum(1 for e in poset.upset(x)
                                             if e != x and poset.index[e] <= yi)
            report.rooted_intervals = max((place(*first[k]) for k in needed), default=0)
        inconsistent = self.inconsistency(cand, late) if need_sc and "tcl" not in first else None
        return "tcl" not in first, "cc" not in first, "cl" not in first, inconsistent

    def passes(self, need_tcl, need_cl, need_sc):
        """The first failing (index of x, index of y) of "tcl" and "cl" as
        far as needed, and for self-consistency, per x and atom pair (a, b):
        cand, the first y where a heads the least chains of [x, y] and b is
        an atom too, and late, the first y' where a chain through a does not
        precede every chain through b."""
        poset, up, asc, order = self.poset, self.up, self.asc, self.order
        index, upset = poset.index, poset._upset
        n = len(order)
        # settle[t]: the least (index of x, index of y) of the intervals
        # [x, y] with y in order[t:]
        low = {}
        for y in order:
            low[y] = min((min(index[d], low[d]) for d in poset.down[y]), default=n)
        settle = [(n, n)] * (n + 1)
        for t in range(n - 1, -1, -1):
            settle[t] = min(settle[t + 1], (low[order[t]], index[order[t]]))
        pending = [k for k, need in (("tcl", need_tcl), ("cl", need_cl)) if need]
        first = {}
        cand = {v: {} for v in order} if need_sc else None
        late = {v: {} for v in order} if need_sc else None

        floor = float("-inf")
        for t, y in enumerate(order):
            if all(k in first and first[k] < settle[t] for k in pending):
                break
            yi = index[y]
            lo, hi, rising, top1, top2, tops = {y: ()}, {y: ()}, {}, {}, {}, {}
            bad_tcl = bad_cl = 0
            for v in reversed(order[:t]):
                if y not in upset[v]:
                    continue
                best, top, ties, covs, keys = None, None, False, [], []
                n_inc, b1, b2 = 0, floor, floor
                for w, lbl in up[v]:
                    rest = lo.get(w)
                    if rest is None:
                        continue
                    key = (lbl, rest)
                    covs.append(w)
                    if best is None:
                        w0, best = w, key
                    else:
                        c = _lex_cmp(key, best)
                        if c < 0:
                            w0, best, ties = w, key, False
                        elif c == 0:
                            ties = True
                    if need_sc:
                        high = (lbl, hi[w])
                        keys.append((w, lbl, key, high))
                        if top is None or _lex_cmp(high, top) > 0:
                            top = high
                    if need_cl:  # b1, b2 become top1[v], top2[v]
                        c = 1 if w == y else (top1[w] > lbl) + (top2[w] > lbl)
                        if c:
                            n_inc += c
                            if lbl >= b1:
                                b1, b2 = lbl, (lbl if c > 1 else b1)
                            elif lbl > b2:
                                b2 = lbl
                lo[v] = best
                if not ties and w0 != y and not best[1][1]:  # y covers w0
                    asc[v][y] = w0
                if need_cl:
                    top1[v], top2[v] = b1, b2
                    rising[v] = w0 == y or (rising[w0] and best[0] < best[1][0])
                    if n_inc != 1 or not rising[v]:
                        bad_cl |= 1 << index[v]
                if need_tcl:  # row becomes tops[v], without the covers of count 0
                    av, row, n_asc = asc[v], [], 0
                    for w in covs:
                        c = 1
                        if w != y:
                            c = 0
                            for z, cz in tops[w]:
                                if av.get(z) == w:
                                    c += cz
                            if not c:
                                continue
                            if c > 2:
                                c = 2
                        row.append((w, c))
                        n_asc += c
                    tops[v] = row
                    if n_asc != 1:
                        bad_tcl |= 1 << index[v]
                if need_sc:
                    hi[v] = top
                    if len(keys) > 1:
                        cv, lv = cand[v], late[v]
                        for a, la, lo_a, hi_a in keys:
                            heads = _lex_cmp(lo_a, best) == 0
                            for b, lb, lo_b, _ in keys:
                                if b == a:
                                    continue
                                pair = (a, b)
                                if heads and cv.get(pair, n) > yi:
                                    cv[pair] = yi
                                if (la > lb or la == lb and _lex_cmp(hi_a, lo_b) >= 0) \
                                        and lv.get(pair, n) > yi:
                                    lv[pair] = yi
            for kind, bad in (("tcl", bad_tcl), ("cl", bad_cl)):
                if bad:
                    key = ((bad & -bad).bit_length() - 1, yi)
                    if key < first.get(kind, (n, n)):
                        first[kind] = key
        return first, cand, late

    def cc_failure(self):
        """The first (index of x, index of y) where two chains of [x, y] have
        label sequences one a prefix of (or equal to) the other, or None.

        Such chains part at a fork u >= x through two covers with one label
        and go on with equal labels until one is at y and the other at some
        b <= y; the pairs of elements so reached are closed upward from each
        fork."""
        poset, up, index, upset = self.poset, self.up, self.poset.index, self.poset._upset
        bad = {}
        for u in poset.elements:
            seen = {(a, b) for i, (a, la) in enumerate(up[u])
                    for b, lb in up[u][i + 1:] if la == lb}
            stack, mask = list(seen), 0
            while stack:
                p, q = stack.pop()
                if q in upset[p]:
                    mask |= 1 << index[q]
                if p in upset[q]:
                    mask |= 1 << index[p]
                for p2, lp in up[p]:
                    for q2, lq in up[q]:
                        if lp == lq:
                            pair = (p2, q2) if index[p2] <= index[q2] else (q2, p2)
                            if pair not in seen:
                                seen.add(pair)
                                stack.append(pair)
            if mask:
                bad[u] = mask
        if not bad:
            return None
        fails = {}  # x -> the bad y of every fork u >= x
        for x in reversed(self.order):
            fails[x] = bad.get(x, 0)
            for w in poset.up[x]:
                fails[x] |= fails[w]
        x = next(x for x in poset.elements if fails[x])
        return index[x], (fails[x] & -fails[x]).bit_length() - 1

    def inconsistency(self, cand, late):
        """The self-consistency witness _self_consistency gives, from the
        pass tables: the first x, then the first y, a and b in canonical
        order."""
        elements, index = self.poset.elements, self.poset.index
        for x in elements:
            hits = [(yi, index[a], index[b], a, b) for (a, b), yi in cand[x].items()
                    if (a, b) in late[x]]
            if hits:
                yi, _, _, a, b = min(hits)
                return {"root": self.first_root(x), "x": x, "y": elements[yi],
                        "y2": elements[late[x][(a, b)]], "atom_first": a, "atom_other": b}
        return None

    def first_root(self, x) -> tuple:
        """The root of x that comes first in canonical order: from the
        bottom, the first cover below x at each step."""
        up, upset, root = self.poset.up, self.poset._upset, [self.poset.bottom]
        while root[-1] != x:
            root.append(next(w for w in up[root[-1]] if x in upset[w]))
        return tuple(root)

    def chains(self, kind, x, y) -> tuple:
        """The chains of [x, y] that the witness of kind lists."""
        chains = interval_chains(self.poset, x, y)
        seqs = [tuple(map(self.edges.__getitem__, zip(c, c[1:]))) for c in chains]
        if kind == "cc":
            return tuple(sorted(zip(seqs, chains)))
        if kind == "cl":
            return tuple(c for c, s in zip(chains, seqs) if all(a < b for a, b in zip(s, s[1:])))
        asc = self.asc
        return tuple(c for c in chains
                     if all(asc[u].get(w) == v for u, v, w in zip(c, c[1:], c[2:])))


def descent_set(lab: CELabeling, poset: Poset,
                budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> frozenset:
    """All rooted adjacent cover pairs (r, u, v, w) that are topological
    descents; the complement over the same domain are the ascents."""
    ver = _Verifier(lab, poset, budget)
    elem, parent, chain = ver.trie.elem, ver.trie.parent, ver.trie.chain
    return frozenset((chain(parent[h]), elem[parent[h]], elem[h], elem[k])
                     for k, (h, ok) in enumerate(zip(parent, ver.asc)) if not ok)


def lex_order_max_chains(lab: CELabeling, poset: Poset, tie_break: bool = False):
    """Maximal chains sorted by dictionary order of their label sequences.

    Raises AmbiguousOrderError when two distinct chains share a full label
    sequence, unless tie_break is set, in which case canonical chain order
    breaks ties.
    """
    # labeling every maximal chain visits every root, so no budget applies
    ver = _Verifier(lab, poset, None)
    trie, path = ver.trie, ver.path
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
                ((tuple(e["root"]), e["from"], e["to"]), e["label"]) for e in labels))
    except (KeyError, TypeError) as exc:
        keys = ("root",) * (mode == "chain-edge") + ("from", "to", "label")
        raise entry_error("labeling", labels, keys, exc) from None
    if mode == "edge":
        return CELabeling.from_edges(poset, table)
    return CELabeling.from_chain_table(poset, table, budget)


def load_labeling(poset: Poset, path,
                  budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> CELabeling:
    return labeling_from_json(poset, load_json_object(path), budget)
