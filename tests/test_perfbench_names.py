"""The traced benchmark run rebinds program names from perfbench/tracing.py.

Each (module, attribute) pair in its PATCHES must stay bound, and
iwastat.cli must keep json as a module attribute, or the traced run fails.
This test only reads perfbench/.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.PATCHES
    for mod_name, attr, span, _ in tracing.PATCHES:
        mod = importlib.import_module(mod_name)
        assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr} ({span}) is not bound"
    cli = importlib.import_module("iwastat.cli")
    assert callable(cli.json.dumps)
