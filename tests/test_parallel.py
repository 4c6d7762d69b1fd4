"""The worker count is capped at the CPUs this process may use.

A stand-in process pool records the worker count it is asked for and runs
the jobs serially in this process, so no test here starts a process, however
many workers it asks for.
"""

import concurrent.futures
import os

import pytest

from iwastat import cli, enumeration, parallel

HEADER = "label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess"
CPUS = 3


class _SerialPool:
    """A ProcessPoolExecutor that records max_workers and each map's job
    count, and maps in this process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.jobs = None
        _SerialPool.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        iterables = [list(it) for it in iterables]
        self.jobs = len(iterables[0])
        return map(fn, *iterables)


@pytest.fixture
def pool(monkeypatch):
    _SerialPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: CPUS)
    return _SerialPool.made


def _square(x):
    return x * x


@pytest.mark.parametrize("workers", [2, CPUS, 100_000])
def test_fan_out_never_asks_for_more_workers_than_cpus(pool, workers):
    jobs = [(x,) for x in range(20)]
    assert list(parallel.fan_out(_square, jobs, workers)) == [x * x for x in range(20)]
    assert [(p.max_workers, p.jobs) for p in pool] == [(min(workers, CPUS), 20)]


def test_fan_out_with_one_usable_cpu_runs_serially(pool, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert list(parallel.fan_out(_square, [(2,), (3,)], 100_000)) == [4, 9]
    assert pool == []


def test_sweep_cuts_its_rows_by_the_capped_count(pool, monkeypatch, capsys):
    argv = ["ip-count", "--l", "7", "--p", "5", "--height", "100000000"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    assert pool == []
    monkeypatch.setattr(enumeration, "_MIN_PARALLEL_US", 0)
    assert cli.main(argv + ["--workers", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert [(p.max_workers, p.jobs) for p in pool] == [(CPUS, CPUS)]


def test_thread_setting_is_capped_too(pool, monkeypatch, capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "".join(f"\nr{i},-1,{i},0,1,,,," for i in range(1, 8)))
    argv = ["scan", str(path), "--max-prime", "30", "--allow-23"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("IWASTAT_THREADS", "100000")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == serial
    assert [(p.max_workers, p.jobs) for p in pool] == [(CPUS, 7)]


def test_usable_cpus_reads_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert parallel.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.usable_cpus() == 1
