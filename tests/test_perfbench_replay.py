"""Every benchmark command, run in-process, exits 0 with the output the
benchmark's own check accepts.

perfbench/workloads.py builds each workload's commands and their output
checks; this test runs them at seed 3 through cli.main, the --workers 2
reruns included, with the scan inputs written under tmp_path. It only
reads perfbench/.
"""

import importlib
import pathlib

import pytest

from iwastat import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("workloads")
    monkeypatch.setattr(module, "WORK_DIR", tmp_path)
    return module


def test_benchmark_commands_pass_their_checks(workloads, capsys):
    expected = workloads.load_expected()
    for name in workloads.WORKLOADS:
        for cmd in workloads.build(name, 3, expected).commands:
            code = cli.main(cmd.argv)
            out = capsys.readouterr().out
            assert code == 0, (name, cmd.argv)
            assert cmd.check(out) is None, (name, cmd.argv)
