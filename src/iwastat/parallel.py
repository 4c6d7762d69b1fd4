"""Process fan-out shared by the height sweep and the CLI scan.

fan_out returns an iterator: it yields each job's result in order, so the
scan writes every record's entry as it finishes instead of keeping the
batch, and the sweep merges its chunks as they arrive.

default_workers is the default worker count: IWASTAT_THREADS sets it;
unset or empty means one worker. A value that is not an integer raises
InvalidSetting, which the CLI reports with exit code 1.

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


def fan_out(fn, jobs, workers: int) -> Iterator:
    """fn(*job) for each job, yielded in order as each result is ready, over
    at most `workers` processes.

    One worker or one job runs serially in this process, one job per step
    of the iterator. fn and the jobs must pickle; the jobs go out in about
    four batches per worker, and the pool lives until the iterator is
    exhausted or closed, so a caller can consume each result as it comes
    without holding them all.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        yield from starmap(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * workers)))
