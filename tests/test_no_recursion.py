"""No function of the package lies on a call cycle, except those listed below.

A search that recurses once per placed item or per chain element ends in
RecursionError on large inputs; the ordering searches use the explicit
stack of `shelling._orderings` instead.  The scan parses `src/shellab/*.py`
and builds each module's call graph from the functions' own bodies (nested
functions excluded, lambdas included).  A call reaches:
- by a bare name, the function of that name defined in the module or in an
  enclosing function (a method is not visible by its bare name);
- through `self.` or `cls.`, the method of that name in the enclosing class;
- through an attribute on any other plain name, the calling method itself
  when the attribute has its name (another instance of the same class).
A function is flagged when it can reach itself, so a cycle through several
functions (`search` calling `_order_atoms` calling `search`) is caught.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "shellab"

# module.qualname -> why its recursion is bounded
ALLOWED = {}


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


def _functions(tree, module):
    """(qualname, node, visible, cls, method) of every function, in
    definition order: `visible` lists the scopes whose functions the bare
    names in its body reach, innermost first; `cls` is the nearest enclosing
    class and `method` whether the function is defined directly in it."""
    found = []
    stack = [(tree, module, (module,), None, False)]
    while stack:
        node, qualname, visible, cls, method = stack.pop()
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            found.append((qualname, node, visible, cls, method))
        nested = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{qualname}.{child.name}"
                nested.append((child, name, visible, name, False))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{child.name}"
                nested.append((child, name, (name, *visible), cls,
                               isinstance(node, ast.ClassDef)))
        stack.extend(reversed(nested))
    return found


def call_graph(path):
    """module.qualname -> set of module.qualnames its own body calls."""
    functions = _functions(ast.parse(path.read_text()), path.stem)
    by_scope = {(name.rpartition(".")[0], node.name): name
                for name, node, visible, cls, method in functions if not method}
    by_class = {(cls, node.name): name
                for name, node, visible, cls, method in functions if method}
    graph = {}
    for name, node, visible, cls, method in functions:
        callees = graph[name] = set()
        for call in _own_calls(node):
            f = call.func
            if isinstance(f, ast.Name):
                scope = next((s for s in visible if (s, f.id) in by_scope), None)
                if scope is not None:
                    callees.add(by_scope[scope, f.id])
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                if f.value.id in ("self", "cls") and (cls, f.attr) in by_class:
                    callees.add(by_class[cls, f.attr])
                elif method and f.attr == node.name:
                    callees.add(name)
    return graph


def recursive_functions(path):
    """module.qualname of every function in the file that can reach itself
    through the call graph, in definition order."""
    graph = call_graph(path)
    found = []
    for name in graph:  # definition order
        seen, stack = set(), list(graph[name])
        while stack:
            g = stack.pop()
            if g == name:
                found.append(name)
                break
            if g not in seen:
                seen.add(g)
                stack.extend(graph[g])
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


def test_the_scan_flags_mutual_recursion(tmp_path):
    # the shape of the former atom-order backtracker: a memoized search
    # whose per-interval backtracker calls the search for each child
    source = tmp_path / "m.py"
    source.write_text(
        "class Search:\n"
        "    def search(self, u):\n"
        "        return self._order_atoms(u, [])\n"
        "    def _order_atoms(self, u, placed):\n"
        "        for a in u:\n"
        "            self.search(a)\n"
        "        return self.leaf(u)\n"
        "    def leaf(self, u):\n"
        "        return not u\n"
        "def even(n):\n"
        "    def helper(k):\n"
        "        return odd(k)\n"
        "    return helper(n)\n"
        "def odd(n):\n"
        "    return even(n - 1) if n else False\n"
        "def tidy(items):\n"
        "    return [odd(i) for i in items]\n"
    )
    assert recursive_functions(source) == [
        "m.Search.search", "m.Search._order_atoms", "m.even", "m.even.helper", "m.odd",
    ]
