"""Process fan-out shared by the height sweep and the CLI scan.

fan_out returns an iterator: it yields each job's result in order, so the
scan writes every record's entry as it finishes instead of keeping the
batch, and the sweep merges its chunks as they arrive.

default_workers is the default worker count: IWASTAT_THREADS sets it;
unset or empty means one worker. A value that is not an integer raises
InvalidSetting, which the CLI reports with exit code 1.

capped_workers bounds any worker count, from --workers or IWASTAT_THREADS,
by the CPUs this process may run on (usable_cpus): more processes than CPUs
gain nothing, and fan_out forks all of its children at once. fan_out
applies it, and the sweep applies it before it cuts its rows into one job
per worker.

The parallel branch forks one child per worker (_forked) and reads each
result back through that child's pipe, so it needs os.fork; without it
fan_out runs serially. The modules it uses (fcntl, pickle, signal, struct)
are imported there, so a serial run loads none of them. The CLI loads this
module only for the commands that can fan out (scan, enumerate, ip-count),
and the sweep fans out only when its estimated serial work passes
enumeration._MIN_PARALLEL_US.
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
    at most capped_workers(workers) forked processes.

    One worker or one job runs serially in this process, one job per step
    of the iterator. Otherwise each child runs its share of the jobs as
    _forked describes: fn and the jobs reach it by fork, and only the
    results must pickle. An exception that fn raises is raised here at its
    job's turn; so is a RuntimeError when a child dies. The children live
    until the iterator is exhausted or closed.
    """
    jobs = list(jobs)
    workers = min(capped_workers(workers), len(jobs))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from starmap(fn, jobs)
        return
    yield from _forked(fn, jobs, workers)


# Each child's pipe is widened to this, the unprivileged Linux maximum by
# default (/proc/sys/fs/pipe-max-size), where the platform allows. An entry
# of a scan to --max-prime 2000 is ~100 kB, more than the default 64 kB
# pipe: a child then runs in lockstep with the reader, and the 200 scan-wide
# records took 6-9% longer with two workers (alternating runs, 2-vCPU VM).
_PIPE_BYTES = 1 << 20


def _forked(fn, jobs: list, workers: int) -> Iterator:
    """fn(*job) for each job, in order, from `workers` forked children.

    Child k runs jobs k, k + workers, k + 2 workers, ... and writes each
    result to its own pipe as an 8-byte length and a pickle of (True,
    result), or (False, exception) where fn raised. This process reads job
    i from child i mod workers. A child blocks on a full pipe, so at any
    time this process holds one result and each child at most one more
    plus a pipe buffer of up to _PIPE_BYTES. On any exit, an early close
    or an exception included, every child is killed and reaped.
    """
    import fcntl
    import pickle
    import signal
    import struct

    children = []  # (pid, read end of its pipe)
    try:
        for k in range(workers):
            r, w = os.pipe()
            try:
                fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (AttributeError, OSError):
                pass  # not Linux, or above pipe-max-size: the pipe keeps its size
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:  # never returns
                _child(fn, jobs[k::workers], w, [r, *(fh.fileno() for _, fh in children)])
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        for i in range(len(jobs)):
            fh = children[i % workers][1]
            head = fh.read(8)
            size = struct.unpack("<Q", head)[0] if len(head) == 8 else -1
            body = fh.read(size) if size > 0 else b""
            if len(body) != size:
                raise RuntimeError(f"worker {i % workers} exited before job {i} finished")
            ok, value = pickle.loads(body)
            if not ok:
                raise value
            yield value
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, jobs, fd, inherited):
    """The body of a forked child: run the jobs, write their results to fd,
    and leave through os._exit, so that nothing of the parent's runs here
    (no stdio or --out buffer is flushed, no atexit hook runs)."""
    try:
        import pickle
        import struct

        for other in inherited:
            os.close(other)
        with os.fdopen(fd, "wb") as out:
            for job in jobs:
                try:
                    data = pickle.dumps((True, fn(*job)), pickle.HIGHEST_PROTOCOL)
                except Exception as e:  # if e does not pickle, the child dies
                    data = pickle.dumps((False, e), pickle.HIGHEST_PROTOCOL)
                out.write(struct.pack("<Q", len(data)))
                out.write(data)
                out.flush()
    finally:
        os._exit(0)
