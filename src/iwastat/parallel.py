"""The default worker count shared by the height sweep, the prime scan and
the CLI.

IWASTAT_THREADS sets it; unset or empty means one worker. A value that is
not an integer raises ValueError, which the CLI reports with exit code 1.
"""

import os


def default_workers() -> int:
    return int(os.environ.get("IWASTAT_THREADS", "1") or "1")
