"""Process fan-out shared by the height sweep and the CLI scan.

default_workers is the default worker count: IWASTAT_THREADS sets it;
unset or empty means one worker. A value that is not an integer raises
InvalidSetting, which the CLI reports with exit code 1.

concurrent.futures is imported on the first parallel call of fan_out, so a
serial run never loads the process pool. fan_out loads nothing else: a
caller whose jobs need a module in every worker (the scan's numpy) imports
it before the call, so the forked workers share it. The CLI loads this
module only for the commands that can fan out (scan, enumerate, ip-count),
and the sweep fans out only when its estimated serial work passes
enumeration._MIN_PARALLEL_US, where the pool pays for its start-up.
"""

import os

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
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (4 * workers))))
