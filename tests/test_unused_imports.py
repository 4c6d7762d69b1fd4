"""No module of iwastat imports a name it never uses.

A stdlib ast pass over src/iwastat: every name an import statement binds
must be read somewhere in the module or listed in its __all__. Package
__init__ files (they re-export), __future__ imports and imports marked
`# noqa: F401` (names kept only so a tracer can rebind them) are skipped.
"""

import ast
import pathlib

import pytest

import iwastat

SRC = pathlib.Path(iwastat.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


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
