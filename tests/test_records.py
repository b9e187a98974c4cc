"""Value semantics of the result classes: equality, repr, defaults, hashing."""

import pytest

from shellab import LabelingReport, OrderComplex, RaoTree, ShellingResult


def test_result_classes_have_value_semantics():
    assert LabelingReport(is_el=True) == LabelingReport(True)
    assert LabelingReport(is_el=True) != LabelingReport(is_el=False)
    assert LabelingReport(witnesses={"el": 1}) != LabelingReport()
    assert ShellingResult(False, (2, 0)) == ShellingResult(ok=False, first_violation=(2, 0))
    assert ShellingResult(False, (2, 0)) != ShellingResult(False, (2, 1))
    assert ShellingResult(True) != (True, None)
    assert RaoTree("0hat", ("a", "b")) == RaoTree("0hat", ("a", "b"), {})
    assert RaoTree("0hat", ("a", "b")) != RaoTree("0hat", ("b", "a"))

    assert repr(ShellingResult(True)) == "ShellingResult(ok=True, first_violation=None)"
    assert repr(RaoTree("0hat", ("a",))) == "RaoTree(bottom='0hat', atom_order=('a',), children={})"

    assert LabelingReport().witnesses is not LabelingReport().witnesses
    assert RaoTree("0hat", ()).children is not RaoTree("0hat", ()).children
    with pytest.raises(TypeError):
        hash(ShellingResult(True))

    k = OrderComplex(("a", "b", "c"), (frozenset("ab"), frozenset("bc")))
    same = OrderComplex(("a", "b", "c"), (frozenset("ab"), frozenset("bc")))
    assert k == same and hash(k) == hash(same) and len({k, same}) == 1
    with pytest.raises(AttributeError):
        k.facets = ()
    with pytest.raises(AttributeError):
        k.extra = 1
    assert k.facets == (frozenset("ab"), frozenset("bc"))
