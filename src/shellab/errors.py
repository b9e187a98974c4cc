"""Exception hierarchy shared by all shellab modules."""


class ShellabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPosetError(ShellabError, ValueError):
    """Poset input is malformed: bad JSON shape, unknown or repeated identifiers."""


class CycleDetectedError(ShellabError):
    """The supplied cover relation contains a directed cycle."""


class NotBoundedError(ShellabError):
    """The poset lacks a unique minimum or a unique maximum."""


class RedundantCoverError(ShellabError):
    """A supplied cover pair is implied by transitivity of the others."""


class InvalidRootError(ShellabError, ValueError):
    """A chain offered as a root is not a maximal chain of the bottom interval."""


class InvalidInputError(ShellabError, ValueError):
    """Input is malformed: not a JSON object, a missing field, or facets
    that do not fit the complex."""


def entry_error(what, entries, keys, exc) -> InvalidInputError:
    """The error for a list of input-file entries whose loading raised `exc`:
    it names the first entry that is not an object or lacks one of `keys`."""
    for e in entries:
        if not isinstance(e, dict):
            return InvalidInputError(f"{what} entry {e!r} is not an object")
        for k in keys:
            if k not in e:
                return InvalidInputError(f'{what} entry {e!r} has no "{k}" field')
    return InvalidInputError(f"unusable {what} entry: {exc}")


def entry_root(what, e) -> tuple:
    """The "root" of an input-file entry as a tuple; one that is not a list,
    such as a string, raises InvalidInputError naming the entry."""
    if not isinstance(e["root"], (list, tuple)):
        raise InvalidInputError(f'{what} entry {e!r} has a "root" that is not a list')
    return tuple(e["root"])


def unique_table(what, pairs) -> dict:
    """The dict of (key, value) pairs read from input-file entries; a key
    given two different values raises InvalidInputError naming it."""
    table = {}
    for k, v in pairs:
        if table.setdefault(k, v) != v:
            raise InvalidInputError(
                f"{what} entries give {k!r} two values, {table[k]!r} and {v!r}")
    return table


class InvalidIntervalError(ShellabError, ValueError):
    """An interval endpoint is not an element, or the lower one is not below the upper."""


class MissingLabelError(ShellabError):
    """A chain-edge labeling table has no entry for a rooted cover relation."""


class MissingFirstAtomError(ShellabError):
    """A first-atom table has no entry for a rooted interval and no default applies."""


class AmbiguousOrderError(ShellabError):
    """Two distinct maximal chains share a label sequence and tie-breaking is off."""


class AmbiguousRootError(ShellabError):
    """An interval bottom has several roots and none was supplied."""


class BudgetExceededError(ShellabError):
    """An enumeration or search exceeded its configured budget."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class NotAnRfasError(ShellabError):
    """A first-atom table failed recursive first atom set validation."""


class NoLcExtensionError(ShellabError):
    """No linear extension of the chain order satisfies the compatibility condition."""


class NotTclError(ShellabError):
    """The labeling is not a TCL-labeling, so the requested construction is undefined."""


class EmptyIntervalError(ShellabError):
    """An open interval contains no elements."""


class NotAShellingError(ShellabError):
    """The facet order violates the shelling condition."""


class EulerMismatchError(ShellabError):
    """A wedge decomposition disagrees with the complex's Euler characteristic."""


class MalformedCertificateError(ShellabError):
    """A recursive atom ordering certificate does not match the poset shape."""


class UnknownNameError(ShellabError):
    """No built-in example with the requested name exists."""
