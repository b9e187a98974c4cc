"""A 9-element nongraded poset that is CC and TCL but not CL.

P is the census class with masks [0, 0, 1, 2, 7, 11, 31]: 0hat < v0, v1;
v0 < v2, v5; v1 < v3, v4; v2 < v4; v3 < v5, v6; v4 < v6; v5, v6 < 1hat.
It is smaller than the paper's 12-element nongraded fig3-Q.

Not CL, by hand: let a = λ(0hat, v0) and b = λ(0hat, v1).  The chains
0hat v1 v3, 0hat v0 v2 and v0 v2 v4 are alone in their rooted intervals, so
each increases; hence b < λ(v1, v3), and 0hat v0 v2 v4 increases.  If a < b,
the lex-least chain of [0hat, v5] starts with v0, so it is 0hat v0 v5, the
one increasing chain; but 0hat v1 v3 v5 increases too.  If a >= b, then in
[0hat, v4] 0hat v0 v2 v4 must be the one increasing chain and lex-least,
which forces a = b and λ(v0, v2) < λ(v1, v4); and 0hat v1 v4 must not
increase, so λ(v1, v4) <= b = a < λ(v0, v2), a contradiction.  Its dual,
on the other hand, has a recursive atom ordering.
"""

from itertools import product

from shellab import (
    FirstAtomSet,
    check_lc,
    check_rfas,
    classify,
    compatible_labeling,
    dual,
    find_grao,
    rfas_from_tcl,
    rooted_intervals,
)
from shellab.labeling import KINDS
from conftest import _classify_literal, bounded

MASKS = [0, 0, 1, 2, 7, 11, 31]


def _lc_tables(p):
    """The first-atom tables of P that pass check_rfas and check_lc, out of
    every choice of one atom per rooted interval with several."""
    choices = [((r, x, y), p.atoms_of(x, y)) for r, x, y in rooted_intervals(p)
               if len(p.atoms_of(x, y)) > 1]
    tables = [FirstAtomSet.from_entries(p, dict(zip([k for k, _ in choices], atoms)))
              for atoms in product(*(atoms for _, atoms in choices))]
    assert len(tables) == 256
    return [omega for omega in tables
            if check_rfas(p, omega).ok and check_lc(p, omega) is not None]


def test_nine_element_poset_is_cc_and_tcl_but_not_cl():
    p = bounded(MASKS)
    assert len(p.elements) == 9
    omega, = _lc_tables(p)
    lab = compatible_labeling(p, omega)
    assert not lab.is_root_independent()
    rep = classify(lab, p)
    assert rep.is_cc and rep.is_tcl and not rep.is_cl
    for kinds in [{kind} for kind in KINDS] + [set(KINDS)]:
        each, literal = classify(lab, p, kinds=kinds), _classify_literal(lab, p, kinds)
        assert each == literal
        assert each.rooted_intervals == literal.rooted_intervals
    assert check_rfas(p, rfas_from_tcl(p, lab)).ok


def test_nine_element_poset_has_no_grao_but_its_dual_does():
    p = bounded(MASKS)
    assert find_grao(p) is None
    assert find_grao(dual(p)) is not None
