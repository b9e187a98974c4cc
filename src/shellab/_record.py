"""Value semantics for the small result classes.

Subclasses name their fields in ``_fields`` and assign them in their own
``__init__``; equality and repr follow those fields, and instances are
unhashable unless a subclass defines ``__hash__``.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"
