"""Built-in example posets, labelings and first-atom tables.

Fixtures live as JSON files next to this module; every expectation they
record is re-derived by the test suite, so the files are data, not verdicts.
"""

from __future__ import annotations

import json
import os

from .._record import Record
from ..errors import UnknownNameError
from ..labeling import CELabeling, labeling_from_json
from ..poset import Poset, poset_from_json
from ..rfas import FirstAtomSet, first_atom_set_from_json

NAMES = ("fig1", "fig2-P", "fig3-Q", "fig5-P", "fig5-Q", "fig8")


class NamedExample(Record):
    _fields = ("name", "poset", "labelings", "first_atom_sets", "expected",
               "comment")

    def __init__(self, name, poset, labelings=None, first_atom_sets=None,
                 expected=None, comment=""):
        self.name = name
        self.poset = poset
        self.labelings = {} if labelings is None else labelings
        self.first_atom_sets = {} if first_atom_sets is None else first_atom_sets
        self.expected = {} if expected is None else expected
        self.comment = comment

    def labeling(self, key) -> CELabeling:
        return self.labelings[key]

    def first_atom_set(self, key) -> FirstAtomSet:
        return self.first_atom_sets[key]


def names() -> tuple:
    return NAMES


def _read(name: str) -> dict:
    # a plain path, not importlib.resources, which on Python 3.12+ imports
    # inspect and ast; the JSON files are installed as package data
    path = os.path.join(os.path.dirname(__file__), f"{name}.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise UnknownNameError(f"no built-in example named {name!r}") from None


def load_named(name: str) -> NamedExample:
    """Load a built-in example by name; see `names()` for the choices."""
    if name not in NAMES:
        raise UnknownNameError(f"no built-in example named {name!r}")
    data = _read(name)
    poset = poset_from_json(data["poset"])
    labelings = {
        key: labeling_from_json(poset, spec)
        for key, spec in data.get("labelings", {}).items()
    }
    first_atom_sets = {
        key: first_atom_set_from_json(poset, spec)
        for key, spec in data.get("first_atom_sets", {}).items()
    }
    return NamedExample(
        name=name,
        poset=poset,
        labelings=labelings,
        first_atom_sets=first_atom_sets,
        expected=data.get("expected", {}),
        comment=data.get("comment", ""),
    )
