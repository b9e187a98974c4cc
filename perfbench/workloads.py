"""Seeded inputs and op lists of the three benchmark workloads.

Every input file is generated here, by the benchmark's own code, so a change
under ``src/`` cannot change what is measured.  Each input family (one poset
with its labelings, first-atom tables and facet orders) comes in VARIANTS
seeded variants; the run's ``--seed`` picks one variant per family and the
order of the ops, and ``expected.json`` pins the bytes of every variant's
files and the digest of every op's report.

Theorem-level expectations are attached to the ops independently of the
recorded digests:

- a Boolean lattice labeled by an injective map of its coordinates is EL,
  hence every kind holds;
- a labeling whose two coordinates share a label has a rank-two interval
  with no strictly increasing chain, hence no kind holds;
- a chain with increasing labels is EL; with one descent it is TCL but not CL;
- a tower of diamonds with one increasing atom per diamond is EL;
- the first atoms of an EL labeling form an RFAS with the LC property, and
  its chain order extends to a shelling;
- the relabeling of a lex order is CC, and ``rfas-from-tcl`` output passes
  ``rfas-check``;
- the lex order of an EL labeling and its reverse are shellings of the order
  complex of a Boolean lattice or a diamond tower; an order whose first two
  facets share fewer than all but one vertex is not;
- a poset with an EL labeling has a recursive atom ordering, and so a
  generalized one.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

VARIANTS = 4

# Budget flags passed to every op, so a change of default does not change
# what is measured (B_7 has 13,699 rooted covers, above the default 10,000).
BUDGET_FLAGS = (
    "--max-rooted-covers", "100000",
    "--search-budget", "1000000",
    "--lc-budget", "1000000",
    "--max-facets", "9",
)

KINDS = ("el", "cl", "ec", "cc", "tcl", "self-consistent")


def _dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _family_rng(family, variant):
    return random.Random(f"{family}/{variant}")


# -- posets ------------------------------------------------------------

def boolean_lattice(n, rng):
    """B_n with a seeded element order inside each rank and a seeded
    injective coordinate labeling.  Returns (poset, labels, perm) where
    labels maps each cover to its label and perm is the label of each
    coordinate."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    letters = "abcdefghijklmnop"

    def name(mask):
        return "s" + "".join(letters[i] for i in range(n) if mask >> i & 1)

    masks = list(range(1 << n))
    tiebreak = {m: rng.random() for m in masks}
    masks.sort(key=lambda m: (bin(m).count("1"), tiebreak[m]))
    covers, labels = [], {}
    for m in masks:
        for i in range(n):
            if not m >> i & 1:
                c = (name(m), name(m | 1 << i))
                covers.append(c)
                labels[c] = perm[i]
    poset = {"elements": [name(m) for m in masks], "covers": [list(c) for c in covers]}
    return poset, labels, perm


def chain_poset(length, rng):
    """A chain c0 < ... < c_length with increasing labels from a seeded
    offset.  Returns (poset, labels)."""
    names = [f"c{i}" for i in range(length + 1)]
    base = rng.randrange(1, 50)
    covers = list(zip(names, names[1:]))
    labels = {c: base + i for i, c in enumerate(covers)}
    return {"elements": names, "covers": [list(c) for c in covers]}, labels


def diamond_tower(k, rng):
    """Ordinal sum of k diamonds: 2^k maximal chains of length 3k - 1.

    Diamond j is b_j < p_j, q_j < t_j with t_j < b_(j+1).  A seeded atom of
    each diamond carries the increasing label pair, so the labeling is EL.
    """
    elements, covers, labels = [], [], {}
    for j in range(k):
        b, p, q, t = f"b{j}", f"p{j}", f"q{j}", f"t{j}"
        atoms = [p, q]
        rng.shuffle(atoms)
        elements += [b] + atoms + [t]
        up, down = atoms if rng.random() < 0.5 else atoms[::-1]
        for c, lbl in (((b, up), 3 * j + 1), ((up, t), 3 * j + 2),
                       ((b, down), 3 * j + 2), ((down, t), 3 * j + 1)):
            covers.append(c)
            labels[c] = lbl
        if j + 1 < k:
            c = (t, f"b{j + 1}")
            covers.append(c)
            labels[c] = 3 * j + 3
    return {"elements": elements, "covers": [list(c) for c in covers]}, labels


def random_bounded(n, edge_probability, rng):
    """A random DAG on n - 2 nodes, transitively reduced, with a bottom and a
    top adjoined."""
    inner = [f"v{i}" for i in range(1, n - 1)]
    succ = {v: set() for v in inner}
    for i, a in enumerate(inner):
        for b in inner[i + 1:]:
            if rng.random() < edge_probability:
                succ[a].add(b)
    reach = {}
    for v in reversed(inner):
        reach[v] = set().union(*({w} | reach[w] for w in succ[v])) if succ[v] else set()
    covers = [(a, b) for a in inner for b in sorted(succ[a], key=inner.index)
              if not any(b in reach[w] for w in succ[a] if w != b)]
    has_down = {b for _, b in covers}
    has_up = {a for a, _ in covers}
    covers += [("0hat", v) for v in inner if v not in has_down]
    covers += [(v, "1hat") for v in inner if v not in has_up]
    if not inner:
        covers.append(("0hat", "1hat"))
    return {"elements": ["0hat"] + inner + ["1hat"], "covers": [list(c) for c in covers]}


# -- derived inputs ----------------------------------------------------

def _up(poset):
    up = {e: [] for e in poset["elements"]}
    for a, b in poset["covers"]:
        up[a].append(b)
    index = {e: i for i, e in enumerate(poset["elements"])}
    return {e: sorted(vs, key=index.__getitem__) for e, vs in up.items()}


def maximal_chains(poset):
    up = _up(poset)
    bottom = poset["elements"][0]
    out, stack = [], [(bottom,)]
    while stack:
        chain = stack.pop()
        nxt = up[chain[-1]]
        if not nxt:
            out.append(chain)
        stack.extend(chain + (w,) for w in reversed(nxt))
    return out


def edge_labeling(labels):
    return {"mode": "edge", "labels": [
        {"from": a, "to": b, "label": lbl} for (a, b), lbl in labels.items()]}


def lex_order(poset, labels):
    """Maximal chains sorted by their label sequences (ties by chain)."""
    def key(chain):
        return tuple(labels[c] for c in zip(chain, chain[1:])), chain
    return sorted(maximal_chains(poset), key=key)


def order_file(chains):
    return "".join(" ".join(c) + "\n" for c in chains)


def far_pair_order(chains, rng):
    """A seeded facet order whose first two facets share fewer than all but
    one vertex, so it is not a shelling (it fails at the second facet)."""
    chains = list(chains)
    rng.shuffle(chains)
    first = set(chains[0])
    j = min(range(1, len(chains)), key=lambda i: len(first & set(chains[i])))
    if len(first & set(chains[j])) >= len(chains[j]) - 1:
        raise ValueError("every facet meets the first in all but one vertex")
    chains.insert(1, chains.pop(j))
    return chains


def lattice_first_atoms(n, poset, perm):
    """The first atom table read off the coordinate labeling of B_n: in every
    rooted interval [x, y] the designated atom adds the coordinate of least
    label.  Intervals with a single atom are left to the default fill."""
    names = {}
    for e in poset["elements"]:
        names[frozenset(e[1:])] = e
    letters = "abcdefghijklmnop"[:n]
    label = dict(zip(letters, perm))
    entries = []
    for x_set in sorted(names, key=lambda s: poset["elements"].index(names[s])):
        x = names[x_set]
        rest = [c for c in letters if c not in x_set]
        for r_len in range(2, len(rest) + 1):
            for extra in itertools.combinations(rest, r_len):
                y = names[x_set | set(extra)]
                atom = names[x_set | {min(extra, key=label.__getitem__)}]
                for perm_x in itertools.permutations(sorted(x_set)):
                    root = [names[frozenset(perm_x[:i])] for i in range(len(perm_x) + 1)]
                    entries.append({"root": root, "x": x, "y": y, "atom": atom})
    return {"default": "leftmost", "first_atoms": entries}


def tower_first_atoms(k, poset, labels):
    """The first atom table read off the tower labeling: from each diamond
    bottom the designated atom is the one with the smaller label; every
    other rooted interval has a single atom."""
    up = _up(poset)
    above = {}
    for e in reversed(poset["elements"]):
        above[e] = set(up[e]).union(*(above[w] for w in up[e]))
    index = {e: i for i, e in enumerate(poset["elements"])}
    roots = [["b0"]]
    entries = []
    for j in range(k):
        b = f"b{j}"
        first = min(up[b], key=lambda a: labels[(b, a)])
        for y in sorted(above[f"t{j}"] | {f"t{j}"}, key=index.__getitem__):
            entries += [{"root": r, "x": b, "y": y, "atom": first} for r in roots]
        roots = [r + [a, f"t{j}", f"b{j + 1}"] for r in roots for a in up[b]]
    return {"default": "leftmost", "first_atoms": entries}


# -- families ----------------------------------------------------------

def _lattice_family(n, rng):
    poset, labels, perm = boolean_lattice(n, rng)
    a, b = rng.sample(range(n), 2)
    tied = {c: (perm[a] if lbl == perm[b] else lbl) for c, lbl in labels.items()}
    lex = lex_order(poset, labels)
    perm2 = rng.sample(perm, n)
    lex2 = lex_order(poset, {c: perm2[perm.index(lbl)] for c, lbl in labels.items()})
    return {
        "poset.json": _dumps(poset),
        "el.json": _dumps(edge_labeling(labels)),
        "tie.json": _dumps(edge_labeling(tied)),
        "rfas.json": _dumps(lattice_first_atoms(n, poset, perm)),
        "lex.order": order_file(lex),
        "lex2.order": order_file(lex2),
        "revlex.order": order_file(lex[::-1]),
        "bad.order": order_file(far_pair_order(lex, rng)),
    }


def _chain_family(length, rng):
    poset, labels = chain_poset(length, rng)
    covers = list(labels)
    i = rng.randrange(len(covers) - 1)
    descent = dict(labels)
    descent[covers[i]], descent[covers[i + 1]] = labels[covers[i + 1]], labels[covers[i]]
    return {
        "poset.json": _dumps(poset),
        "el.json": _dumps(edge_labeling(labels)),
        "descent.json": _dumps(edge_labeling(descent)),
        "rfas.json": _dumps({"default": "leftmost", "first_atoms": []}),
    }


def _tower_family(k, rng):
    poset, labels = diamond_tower(k, rng)
    lex = lex_order(poset, labels)
    flipped = {j for j in range(k) if rng.random() < 0.5}

    def swap(lbl):
        # diamond j's labels 3j+1 and 3j+2 trade places, which hands the
        # increasing pair to its other atom and keeps the labeling EL
        j, r = divmod(lbl - 1, 3)
        return 3 * j + 2 - r if r < 2 and j in flipped else lbl

    lex2 = lex_order(poset, {c: swap(lbl) for c, lbl in labels.items()})
    return {
        "poset.json": _dumps(poset),
        "el.json": _dumps(edge_labeling(labels)),
        "rfas.json": _dumps(tower_first_atoms(k, poset, labels)),
        "lex.order": order_file(lex),
        "lex2.order": order_file(lex2),
        "revlex.order": order_file(lex[::-1]),
        "bad.order": order_file(far_pair_order(lex, rng)),
    }


def _random_family(spec, rng):
    n, p = spec.split("p")
    return {"poset.json": _dumps(random_bounded(int(n), int(p) / 100, rng))}


_FAMILIES = {"B": _lattice_family, "C": _chain_family, "T": _tower_family,
             "R": _random_family}


def generate(family, variant):
    """File name -> content for one variant of one input family, such as
    ``B-7`` (Boolean lattice), ``C-100`` (chain), ``T-8`` (diamond tower) or
    ``R-24p30`` (random poset on 24 elements, edge probability 0.30)."""
    kind, _, size = family.partition("-")
    make = _FAMILIES[kind]
    return make(size if kind == "R" else int(size), _family_rng(family, variant))


# -- ops ---------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One ``shellab`` subcommand run.  In ``args``, ``@name`` is an input
    file of the op's family and ``%name`` a file an earlier op of the same
    group wrote with ``--out``."""

    id: str
    family: str
    args: tuple
    expect: dict = field(default_factory=dict)  # verdicts theory fixes
    out: str | None = None


def _check(fam, kind, labeling="@el.json", verdict=True):
    return Op(f"check-{kind} {labeling[1:]} {fam}", fam,
              ("check", "--kind", kind, "@poset.json", labeling), {kind: verdict})


def _labeling_groups(fam, kinds=KINDS, lc=True):
    """check --kind for each kind, relabel -> check cc, rfas-from-tcl ->
    rfas-check, rfas-check and lc-check on the generated table."""
    groups = [[_check(fam, k)] for k in kinds]
    groups.append([
        Op(f"relabel {fam}", fam, ("relabel", "@poset.json", "--order-from-labeling",
                                   "@el.json", "--out", "%relabel.json"),
           {"relabeled": True}, out="relabel.json"),
        Op(f"check-cc relabel.json {fam}", fam,
           ("check", "--kind", "cc", "@poset.json", "%relabel.json"), {"cc": True}),
    ])
    groups.append([
        Op(f"rfas-from-tcl {fam}", fam, ("rfas-from-tcl", "@poset.json", "@el.json",
                                         "--out", "%tcl-rfas.json"),
           {"rfas-from-tcl": True}, out="tcl-rfas.json"),
        Op(f"rfas-check tcl-rfas.json {fam}", fam,
           ("rfas-check", "@poset.json", "%tcl-rfas.json"), {"rfas": True}),
    ])
    groups.append([Op(f"rfas-check {fam}", fam, ("rfas-check", "@poset.json", "@rfas.json"),
                      {"rfas": True})])
    if lc:
        groups.append(_lc_check(fam))
    return groups


def _lc_check(fam):
    return [Op(f"lc-check {fam}", fam, ("lc-check", "@poset.json", "@rfas.json"),
               {"lc-extension": True})]


def _rao(fam, grao=False, expect=True):
    kind = "grao" if grao else "rao"
    flag = ("--grao",) if grao else ()
    return [Op(f"{kind} {fam}", fam, ("rao", *flag, "@poset.json"),
               {} if expect is None else {kind: expect})]


def _shelling_groups(fam):
    return [[Op(f"shelling-verify {o} {fam}", fam,
                ("shelling-verify", "@poset.json", "--order-file", f"@{o}.order"),
                {"shelling": o != "bad"})]
            for o in ("lex", "lex2", "revlex", "bad")]


def _rfas_shell(fam):
    return [Op(f"rfas-shell {fam}", fam, ("rfas-shell", "@poset.json", "@rfas.json"),
               {"shelling": True})]


def _wide_lattices():
    groups = []
    for n in (5, 6, 7):
        fam = f"B-{n}"
        # lc-check on B_6 runs for minutes and on B_7 crashes (KNOWN_FAILURES)
        groups += _labeling_groups(fam, lc=n == 5)
        groups += [[_check(fam, k, "@tie.json", False)] for k in ("el", "cl", "cc", "tcl")]
    return groups


def _deep_towers():
    groups = []
    for fam in ("C-50", "C-90", "T-6", "T-8"):
        groups += _labeling_groups(fam)
        groups += [_rao(fam), _rao(fam, grao=True)]
        groups.append([Op(f"chains {fam}", fam, ("chains", "@poset.json"),
                          {"enumerated": True})])
        if fam.startswith("C"):
            groups += [[_check(fam, "el", "@descent.json", False)],
                       [_check(fam, "tcl", "@descent.json", True)]]
    groups += [[_check("C-120", "tcl")], [_check("T-9", "tcl")]]
    return groups


def _complexes():
    groups = []
    for fam in ("B-5", "B-6", "T-6", "T-8", "T-9"):
        groups += _shelling_groups(fam) + [_rfas_shell(fam)]
    for fam in ("R-24p30", "R-32p20", "R-40p15", "R-48p12", "R-60p10"):
        groups += [_rao(fam, expect=None), _rao(fam, grao=True, expect=None)]
    return groups


WORKLOADS = {
    "wide-lattices": _wide_lattices,
    "deep-towers": _deep_towers,
    "complexes": _complexes,
}


# Ops that fail on the code the benchmark was written for, one per
# workload.  A timed run has no failing op, so only the traced run runs
# these, once each, and reports how many still fail and in which layer.
KNOWN_FAILURES = {
    # RecursionError, reached only after about 77 s
    "wide-lattices": _lc_check("B-7"),
    "deep-towers": _rao("C-400"),  # RecursionError
    "complexes": _rfas_shell("B-7"),  # RecursionError in the chain-order search
}


def op_groups(workload):
    """The workload's timed ops in groups; a group runs in order, because a
    later op reads what an earlier one wrote."""
    return WORKLOADS[workload]()


def families(groups):
    return sorted({op.family for group in groups for op in group})


def plan(workload, seed):
    """The seeded run plan: a variant per family, the timed ops in the order
    of their groups, and the known failures."""
    rng = random.Random(seed)
    groups = op_groups(workload)
    known = KNOWN_FAILURES[workload]
    variants = {fam: rng.randrange(VARIANTS) for fam in families(groups + [known])}
    rng.shuffle(groups)
    return variants, [op for group in groups for op in group], known
