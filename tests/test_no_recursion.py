"""No function of the package calls itself, except the few listed below.

A search that recurses once per placed item or per chain element ends in
RecursionError on large inputs; the ordering searches use the explicit
stack of `shelling._orderings` instead.  The scan parses `src/shellab/*.py`
and flags a function whose own body (nested functions excluded, lambdas
included) calls it: a plain function or closure by its bare name, a method
through an attribute of the same name on a plain name such as `self`, `cls`
or another instance.  Mutual recursion (`_Search.search` calling
`_Search._order_atoms` calling `_Search.search`) is not caught.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shellab"

# module.qualname -> why its recursion is bounded or still to be removed
ALLOWED = {
    "rao.RaoTree.to_json": "a certificate nests one level per atom of a chain",
    "rao.RaoTree.from_json": "reads what to_json writes, one level per atom of a chain",
    "rao._Search._order_atoms": "one frame per placed atom; needs an explicit "
                                "stack across child intervals (ROADMAP item 3)",
    "rao._verify": "one frame per certificate level, as the search builds it",
    "cli._witness_jsonable": "witness payloads nest a fixed few levels deep",
}


def _own_calls(fn):
    """The Call nodes of `fn`'s body, not entering nested defs or classes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _calls_itself(fn, is_method):
    for call in _own_calls(fn):
        f = call.func
        if is_method:
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name)):
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def recursive_functions(path):
    """module.qualname of every function in the file that calls itself."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if _calls_itself(child, in_class):
                    found.append(name)
                visit(child, name, False)

    visit(ast.parse(path.read_text()), path.stem, False)
    return found


def test_no_function_in_the_package_calls_itself():
    found = [name for path in sorted(SRC.glob("*.py")) for name in recursive_functions(path)]
    assert sorted(found) == sorted(ALLOWED)


def test_the_scan_flags_self_calls(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def walk(n):\n"
        "    def rec(k):\n"
        "        return rec(k - 1) if k else 0\n"
        "    return rec(n)\n"
        "def lam(n):\n"
        "    return (lambda: lam(n - 1))\n"
        "class C:\n"
        "    def go(self):\n"
        "        return self.go()\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.make()\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "    def outer(self):\n"
        "        return outer()\n"
    )
    assert recursive_functions(source) == ["m.walk.rec", "m.lam", "m.C.go", "m.C.make"]
