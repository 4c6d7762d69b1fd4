"""Process fan-out shared by the height sweep and the CLI scan.

fan_out returns an iterator: it yields each job's result in order, so the
scan writes every record's entry as it finishes instead of keeping the
batch, and the sweep merges its chunks as they arrive.

default_workers is the default worker count: IWASTAT_THREADS sets it;
unset or empty means one worker. A value that is not an integer raises
InvalidSetting, which the CLI reports with exit code 1.

capped_workers bounds any worker count, from --workers or IWASTAT_THREADS,
by the CPUs this process may run on (usable_cpus): more processes than CPUs
gain nothing, and the fork pool starts all of its processes at once. fan_out
applies it, and the sweep applies it before it cuts its rows into one job
per worker.

concurrent.futures is imported on the first parallel call of fan_out, so a
serial run never loads the process pool. The CLI loads this module only
for the commands that can fan out (scan, enumerate, ip-count), and the
sweep fans out only when its estimated serial work passes
enumeration._MIN_PARALLEL_US, where the pool pays for its start-up.
"""

import os
from itertools import starmap
from typing import Iterator

from .errors import InvalidSetting


def default_workers() -> int:
    try:
        return int(os.environ.get("IWASTAT_THREADS", "1") or "1")
    except ValueError as e:
        raise InvalidSetting(str(e)) from None


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, else os.cpu_count(), and at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def capped_workers(workers: int) -> int:
    return min(workers, usable_cpus())


def fan_out(fn, jobs, workers: int) -> Iterator:
    """fn(*job) for each job, yielded in order as each result is ready, over
    at most capped_workers(workers) processes.

    One worker or one job runs serially in this process, one job per step
    of the iterator. fn and the jobs must pickle; the jobs go out in about
    four batches per worker, and the pool lives until the iterator is
    exhausted or closed, so a caller can consume each result as it comes
    without holding them all.
    """
    jobs = list(jobs)
    workers = min(capped_workers(workers), len(jobs))
    if workers <= 1:
        yield from starmap(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * workers)))
