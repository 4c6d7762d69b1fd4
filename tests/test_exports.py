"""Every name a module lists in __all__ must be bound in it.

A deletion that leaves its name in an __all__ list breaks
`from iwastat.<module> import *` and misleads readers; this catches it.
"""

import importlib
import pkgutil

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

