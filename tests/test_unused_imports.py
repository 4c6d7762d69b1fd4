"""No module of iwastat imports a name it never uses, or defines one no
module uses.

A stdlib ast pass over src/iwastat: every name a module-level import binds
must be read somewhere in the module or listed in its __all__, and every
name an import inside a function binds must be read in that function.
Package __init__ files (they re-export), __future__ imports and imports
marked `# noqa: F401` (names kept only so a tracer can rebind them) are
skipped.

The dead-code guard: every module-level private function or class, and
every name of a module's __all__ that the package does not re-export
(iwastat._EXPORTS), must be referenced somewhere in src/iwastat outside
its own definition. Tests and benches do not count: a definition only they
reach is code no shipped path needs.
"""

import ast
import pathlib

import pytest

import iwastat

SRC = pathlib.Path(iwastat.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of scope that lie outside every function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set(_module_all(tree))
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS))]:
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            used |= exported
        unused += [(line, name) for name, line in imported.items() if name not in used]
    return sorted(unused)


def _module_all(tree):
    """The names of a literal __all__ (the package's is computed)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                return []
    return []


def _unreferenced(sources, exports):
    """(module, name) for each private module-level def or class, and each
    __all__ name not in exports[module], that no module references outside
    its own definition. sources maps a module name to its source."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, _DEFINITIONS) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    referenced.add(name)
    dead = []
    for module, tree in trees.items():
        private = [stmt.name for stmt in tree.body
                   if isinstance(stmt, _DEFINITIONS) and stmt.name.startswith("_")
                   and not stmt.name.startswith("__")]
        public = [n for n in _module_all(tree) if n not in exports.get(module, ())]
        dead += [(module, n) for n in private + public if n not in referenced]
    return sorted(dead)


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    dead = _unreferenced(sources, iwastat._EXPORTS)
    assert not dead, f"defined but referenced nowhere in src/iwastat: {dead}"


def test_guard_flags_a_helper_whose_caller_is_gone():
    sources = {
        "primes": (
            "__all__ = ['legendre', 'sqrt_mod', 'isqrt']\n"
            "def legendre(a, p): return 1\n"
            "def sqrt_mod(a, p): return sqrt_mod(a - p, p) if a > p else a\n"
            "def isqrt(n): return n\n"
            "def _unused(): return _unused()\n"
            "def _helper(): return 1\n"
        ),
        "enumeration": (
            "from .primes import isqrt\n"
            "from . import primes\n"
            "def _root_table(l): return [isqrt(a) + primes._helper() for a in range(l)]\n"
            "def count(l): return len(_root_table(l))\n"
        ),
    }
    dead = _unreferenced(sources, {"primes": ("legendre",)})
    assert dead == [("primes", "_unused"), ("primes", "sqrt_mod")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, isqrt\n"
        "from json import dumps  # noqa: F401\n"
        "__all__ = ['isqrt']\n"
        "def f(x):\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == [(3, "gcd")]


def test_checker_flags_a_function_import_read_only_elsewhere():
    # np is read in g and at module level, but the import in f binds it for
    # f alone, and f never reads it
    source = (
        "def f(x):\n"
        "    import numpy as np\n"
        "    return x\n"
        "def g(x):\n"
        "    import numpy as np\n"
        "    def inner():\n"
        "        return np.asarray(x)\n"
        "    return inner()\n"
        "def h():\n"
        "    return np\n"
    )
    assert _unused_imports(source) == [(2, "np")]
