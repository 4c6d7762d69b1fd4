"""Process fan-out shared by the height sweep and the CLI scan.

default_workers is the default worker count: IWASTAT_THREADS sets it;
unset or empty means one worker. A value that is not an integer raises
InvalidSetting, which the CLI reports with exit code 1.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import InvalidSetting


def default_workers() -> int:
    try:
        return int(os.environ.get("IWASTAT_THREADS", "1") or "1")
    except ValueError as e:
        raise InvalidSetting(str(e)) from None


def fan_out(fn, jobs, workers: int) -> list:
    """[fn(*job) for job in jobs], in order, over at most `workers` processes.

    One worker or one job runs serially in this process. fn and the jobs
    must pickle; the jobs go out in about four batches per worker.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * workers))))
