"""Each command loads only the modules it runs.

The package and the CLI import nothing up front; each handler imports its
command's modules, and the names a caller rebinds on iwastat.cli (the
benchmark tracer, the tests) are what the handlers call. The budgets run in
a fresh interpreter that compiles every source, as a machine without
bytecode caches does.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import iwastat
from iwastat import cli

HEADER = "label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess"


def _loaded_after(tmp_path, script):
    """The iwastat submodules a fresh interpreter holds after script."""
    script += '\nprint(*sorted(m for m in sys.modules if m.startswith("iwastat.")))\n'
    src = pathlib.Path(iwastat.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", "import sys\n" + script], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return {m.removeprefix("iwastat.") for m in out.stdout.split()}


def test_importing_the_package_and_the_cli_loads_no_command_module(tmp_path):
    assert _loaded_after(tmp_path, "import iwastat") == set()
    assert _loaded_after(tmp_path, "import iwastat.cli") == {"cli", "errors"}


UNUSED_BY_SWEEP = {"prime_scan", "local_data", "charpoly", "euler_char"}
BUDGETS = [
    # argv, the only modules it may load (or None), modules it must not load
    (["dp", "--prime", "499"], {"cli", "errors", "curves", "primes"}, None),
    (["invariants", "--poly", "25,5", "--prime", "5"], {"cli", "errors", "charpoly", "primes"}, None),
    (["bounds", "--prime", "457"], None, UNUSED_BY_SWEEP),
    (["enumerate", "--height", "1000000", "--prime", "499"], None, UNUSED_BY_SWEEP),
    (["ip-count", "--l", "7", "--p", "5", "--height", "100000000"], None, UNUSED_BY_SWEEP),
    (["scan", "recs.csv", "--max-prime", "30"], None, {"enumeration"}),
]


@pytest.mark.parametrize("argv, only, never", BUDGETS, ids=[b[0][0] for b in BUDGETS])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, only, never):
    (tmp_path / "recs.csv").write_text(HEADER + "\na,-1,0,0,1,4,,,\nb,-1,1,1,1,1,,,5:0\n")
    loaded = _loaded_after(tmp_path, textwrap.dedent(f"""
        import contextlib, io
        import iwastat.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert iwastat.cli.main({argv!r}) == 0
    """))
    if only is not None:
        assert loaded == only
    else:
        assert not loaded & never, loaded & never


def test_rebinding_a_cli_name_is_what_the_command_calls(capsys, tmp_path, monkeypatch):
    # perfbench/tracing.py and tests/test_cli.py rebind these names on the
    # module; the handlers must look them up there at call time
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "\na,-1,0,0,1,4,,,\n")
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("parse_records", "scan_primes", "fan_out", "empirical_densities"):
        spy(name)
    assert cli.main(["scan", str(path), "--max-prime", "20"]) == 0
    assert cli.main(["enumerate", "--height", "1000", "--prime", "5"]) == 0
    capsys.readouterr()
    assert calls == ["parse_records", "fan_out", "scan_primes", "empirical_densities"]
    assert callable(cli.scan_result_dict)
    with pytest.raises(AttributeError):
        cli.no_such_name
