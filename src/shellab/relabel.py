"""Chain-edge labelings built from a total order on maximal chains.

Given a total order m_1, ..., m_t on the maximal chains, each rooted cover
(r, x, a) is labeled with the (1-based) position of the first chain that
contains r and a, except that the label is inherited from an earlier atom
whose chains sandwich that position.  The output always assigns distinct
label sequences to chains through distinct atoms of a rooted interval and no
sequence is a proper prefix of another.
"""

from __future__ import annotations

from .chains import DEFAULT_ROOTED_COVER_BUDGET, root_trie
from .errors import InvalidInputError, InvalidRootError
from .labeling import CELabeling
from .poset import Poset


def _positions(poset: Poset, order, budget):
    """The RootTrie, the first and last 1-based position in `order` of a
    chain through each node, and the children of each inner node by first
    position; InvalidInputError unless order permutes the maximal chains."""
    trie = root_trie(poset, budget)
    try:
        leaves = [trie.resolve(m, (poset.top,))[0] for m in order]
    except InvalidRootError:
        leaves = ()
    if sorted(leaves) != trie.nodes_of[poset.top]:
        raise InvalidInputError("order must be a permutation of the maximal chains")
    at = {d: pos for pos, d in enumerate(leaves, start=1)}
    spans = [[at[d] for d in trie.within(v, poset.top)] for v in range(len(trie))]
    first, last = [min(s) for s in spans], [max(s) for s in spans]
    kids = {g: sorted(trie.children(g), key=first.__getitem__)
            for g in range(len(trie)) if trie.end[g] > g + 1}
    return trie, first, last, kids


def relabel_from_order(poset: Poset, order,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> CELabeling:
    """The chain-edge labeling determined by a maximal chain order.

    Accepts any permutation of the maximal chains; whether the result is a
    CC-labeling is a property of the order, not a precondition.
    """
    trie, first, last, kids = _positions(poset, order, budget)
    lab_in = [None] * len(trie)
    for cs in kids.values():
        for j, c in enumerate(cs):
            inherit = next((h for h in cs[:j] if last[h] > first[c]), None)
            lab_in[c] = first[c] if inherit is None else lab_in[inherit]
    return CELabeling._from_nodes(poset, lab_in)


def verify_label_bound(poset: Poset, order, lab: CELabeling,
                       budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> bool:
    """Every rooted cover label is at most the position of the first chain
    containing the root together with both endpoints of the cover."""
    trie, first, _, _ = _positions(poset, order, budget)
    lab_in = lab._by_node(trie)
    return all(lab_in[v] <= first[v] for v in range(1, len(trie)))


def verify_block_structure(poset: Poset, order, lab: CELabeling,
                           budget: int = DEFAULT_ROOTED_COVER_BUDGET) -> bool:
    """In each rooted interval's first-appearance atom order, equal labels
    form contiguous blocks."""
    trie, _, _, kids = _positions(poset, order, budget)
    lab_in = lab._by_node(trie)
    for cs in kids.values():
        block_of = {}
        for i, c in enumerate(cs):
            block_of.setdefault(lab_in[c], []).append(i)
        for positions in block_of.values():
            if positions != list(range(positions[0], positions[-1] + 1)):
                return False
    return True
