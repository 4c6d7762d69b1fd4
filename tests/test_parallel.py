"""The fan-out contract: worker caps, order, errors and cleanup.

The worker-cap tests replace parallel._forked, the one place that starts
processes, with a stand-in that records the worker count and job count it is
asked for and runs the jobs serially in this process, so none of them starts
a process, however many workers it asks for. The cleanup tests fork real
children (two, on two CPUs) and check afterwards that none is left: every
child is killed and reaped however the iterator ends.
"""

import os
import signal
import time
from itertools import starmap

import pytest

from iwastat import cli, enumeration, parallel

HEADER = "label,a,b,rank,sha_order,torsion_order,tamagawa_2,tamagawa_3,reg_excess"
CPUS = 3


@pytest.fixture
def forks(monkeypatch):
    made = []

    def serial(fn, jobs, workers):
        made.append((workers, len(jobs)))
        return starmap(fn, jobs)

    monkeypatch.setattr(parallel, "_forked", serial)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: CPUS)
    return made


def _square(x):
    return x * x


@pytest.mark.parametrize("workers", [2, CPUS, 100_000])
def test_fan_out_never_asks_for_more_workers_than_cpus(forks, workers):
    jobs = [(x,) for x in range(20)]
    assert list(parallel.fan_out(_square, jobs, workers)) == [x * x for x in range(20)]
    assert forks == [(min(workers, CPUS), 20)]


def test_fan_out_with_one_usable_cpu_runs_serially(forks, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert list(parallel.fan_out(_square, [(2,), (3,)], 100_000)) == [4, 9]
    assert forks == []


def test_fan_out_without_fork_runs_serially(forks, monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert list(parallel.fan_out(_square, [(2,), (3,)], 2)) == [4, 9]
    assert forks == []


def test_sweep_cuts_its_rows_by_the_capped_count(forks, monkeypatch, capsys):
    argv = ["ip-count", "--l", "7", "--p", "5", "--height", "100000000"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    assert forks == []
    monkeypatch.setattr(enumeration, "_MIN_PARALLEL_US", 0)
    assert cli.main(argv + ["--workers", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert forks == [(CPUS, CPUS)]


def test_thread_setting_is_capped_too(forks, monkeypatch, capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "".join(f"\nr{i},-1,{i},0,1,,,," for i in range(1, 8)))
    argv = ["scan", str(path), "--max-prime", "30", "--allow-23"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("IWASTAT_THREADS", "100000")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == serial
    assert forks == [(CPUS, 7)]


def test_usable_cpus_reads_the_affinity_mask_or_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert parallel.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert parallel.usable_cpus() == 1


# ---------------------------------------------------------------------------
# real children

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="fan_out forks only where it can")


@pytest.fixture
def two_children(monkeypatch):
    """Two workers whatever this machine has; a hang fails the test after
    30 s, and no child may be left when it ends."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("fan_out hung")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_or_die(x, fail_at, how):
    if x == fail_at:
        if how == "raise":
            raise ValueError(f"job {x} failed")
        if how == "hang":
            time.sleep(120)
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x


@needs_fork
def test_children_return_results_in_order(two_children):
    pids = list(parallel.fan_out(lambda _: os.getpid(), [(i,) for i in range(6)], 2))
    assert len(set(pids[0::2])) == len(set(pids[1::2])) == 1
    assert os.getpid() not in pids and pids[0] != pids[1]
    jobs = [(x, None, None) for x in range(41)]
    assert list(parallel.fan_out(_square_or_die, jobs, 2)) == [x * x for x in range(41)]


@needs_fork
@pytest.mark.parametrize("fail_at", [None, 1], ids=["blocked", "busy"])
def test_closing_the_iterator_after_its_first_result(two_children, fail_at):
    # the other child is blocked on its full pipe, or still busy with job 1
    results = parallel.fan_out(_square_or_die, [(x, fail_at, "hang") for x in range(1000)], 2)
    assert next(results) == 0
    results.close()


@needs_fork
@pytest.mark.parametrize("how, error", [
    ("raise", "job 5 failed"),
    ("kill", "worker 1 exited before job 5 finished"),
])
def test_a_failing_job_raises_at_its_turn(two_children, how, error):
    results = parallel.fan_out(_square_or_die, [(x, 5, how) for x in range(12)], 2)
    got = []
    with pytest.raises((ValueError, RuntimeError), match=error):
        for value in results:
            got.append(value)
    assert got == [0, 1, 4, 9, 16]


@needs_fork
def test_an_exception_in_the_caller(two_children):
    def consume():
        for value in parallel.fan_out(_square_or_die, [(x, None, None) for x in range(50)], 2):
            if value == 9:
                raise KeyError("caller")

    with pytest.raises(KeyError):
        consume()


@needs_fork
@pytest.mark.parametrize("how", ["raise", "kill"])
def test_the_cli_exits_2_when_a_sweep_child_fails(two_children, monkeypatch, capsys, how):
    # the sweep's chunks run in the children and fan_out re-raises there;
    # the scan catches what its records raise, so it is checked by a kill
    def broken(*args):
        _square_or_die(0, 0, how)

    monkeypatch.setattr(enumeration, "_MIN_PARALLEL_US", 0)
    monkeypatch.setattr(enumeration, "_sweep_chunk", broken)
    code = cli.main(["ip-count", "--l", "7", "--p", "5", "--height", "100000000",
                     "--workers", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == ("internal error: job 0 failed\n" if how == "raise"
                   else "internal error: worker 0 exited before job 0 finished\n")


@needs_fork
def test_the_cli_exits_2_when_a_scan_child_is_killed(two_children, monkeypatch, capsys, tmp_path):
    path = tmp_path / "recs.csv"
    path.write_text(HEADER + "".join(f"\nr{i},-1,{i},0,1,,,," for i in range(1, 9)))
    real = cli.scan_primes

    def killed_at_r4(rec, *args, **kwargs):
        if rec.label == "r4":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(rec, *args, **kwargs)

    monkeypatch.setattr(cli, "scan_primes", killed_at_r4)
    out_path = tmp_path / "scan.json"
    code = cli.main(["scan", str(path), "--max-prime", "30", "--allow-23", "--workers", "2",
                     "--out", str(out_path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "internal error: worker 1 exited before job 3 finished\n")
    assert not out_path.exists()
