"""Every name a module lists in __all__ must be bound in it.

A deletion that leaves its name in an __all__ list breaks
`from iwastat.<module> import *` and misleads readers; this catches it.
"""

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
