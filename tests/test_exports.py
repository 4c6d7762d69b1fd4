"""Every name a module lists in __all__ must be bound in it and defined
there, and every name the package re-exports from a module must be in that
module's __all__.

A deletion that leaves its name in an __all__ list breaks
`from iwastat.<module> import *` and misleads readers; this catches it, a
name a module lists but only imports, and a package export its module does
not list as public.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import iwastat

MODULES = ["iwastat"] + [f"iwastat.{m.name}" for m in pkgutil.iter_modules(iwastat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_bound(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names unbound {missing}"


def _defined_names(path):
    """The names a module's top level defines: def, class or assignment."""
    names = set()
    for node in ast.parse(pathlib.Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES[1:])
def test_all_lists_only_names_the_module_defines(name):
    # the package's own __all__ is its lazy re-exports, so it is left out
    mod = importlib.import_module(name)
    foreign = sorted(set(getattr(mod, "__all__", [])) - _defined_names(mod.__file__))
    assert not foreign, f"{name}.__all__ lists names it does not define: {foreign}"


@pytest.mark.parametrize("module", sorted(iwastat._EXPORTS))
def test_package_exports_are_public_in_their_module(module):
    mod = importlib.import_module(f"iwastat.{module}")
    if hasattr(mod, "__all__"):
        unlisted = sorted(set(iwastat._EXPORTS[module]) - set(mod.__all__))
        assert not unlisted, f"iwastat.{module}.__all__ omits the package exports {unlisted}"


def test_star_import_and_dir_cover_the_package_all():
    # a fresh interpreter: the package binds its names on first access, and
    # dir() and * must see all of them before any is touched
    script = textwrap.dedent("""
        import iwastat
        listed = set(dir(iwastat))
        namespace = {}
        exec("from iwastat import *", namespace)
        print(sorted(set(iwastat.__all__) - listed), sorted(set(iwastat.__all__) - set(namespace)))
    """)
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "[]"]
    with pytest.raises(AttributeError):
        iwastat.no_such_name


def test_moved_census_names_are_one_object():
    # the census and its bounds have one implementation, in iwastat.census;
    # enumeration imports the bounds its report carries, the same objects
    census = importlib.import_module("iwastat.census")
    enumeration = importlib.import_module("iwastat.enumeration")
    for name in ("bound_dp2", "bound_dp3", "zeta10"):
        assert getattr(enumeration, name) is getattr(census, name), f"iwastat.enumeration.{name}"
        assert getattr(iwastat, name) is getattr(census, name), f"iwastat.{name}"


def test_curves_does_not_re_export_the_census():
    # one import path per name: the census's own objects come from
    # iwastat.census or the package, no longer from curves
    census = importlib.import_module("iwastat.census")
    curves = importlib.import_module("iwastat.curves")
    for name in ("DpMode", "d_of_p", "dp_table"):
        assert not hasattr(curves, name), f"iwastat.curves.{name}"
        assert getattr(iwastat, name) is getattr(census, name), f"iwastat.{name}"
