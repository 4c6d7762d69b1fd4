"""The speed probe: how fast the CPU the program runs on is, moment by moment.

    python3 perfbench/speed.py < (a pipe the caller closes to stop it)

Every PERIOD_S it times one chunk of fixed work in CPU time: point counts on
small curves mod small primes in pure Python, then numpy sweeps over one row
of a height box. That is the kind of work the program does, but no part of
the program. It prints "ready" once started. When its standard input closes
it prints one JSON list of [start, CPU seconds] per chunk, start on the clock
of time.perf_counter, which all processes of the machine share. run.py runs
it pinned to the CPU the timed commands are pinned to and scales each
command's time by the chunk times measured while the command ran (see
run.Speed).
"""

import json
import select
import sys
from time import perf_counter, thread_time

import numpy as np

PERIOD_S = 0.05
PRIMES = (191, 193, 197)
ELLS = (5, 7, 11, 13)
B = np.arange(-10 ** 4, 10 ** 4 + 1, dtype=np.int64)
TOTAL = 17045             # a chunk's result, checked so its work is never skipped


def chunk() -> int:
    """Point counts of y^2 = x^3 + ax + 1 mod p in pure Python, then numpy
    sweeps over a row of the height-1e8 box, as enumerate makes them."""
    total = 0
    for p in PRIMES:
        squares = [0] * p
        for y in range(p):
            squares[y * y % p] += 1
        for a in range(0, p, 17):
            total += sum(squares[(x * x * x + a * x + 1) % p] for x in range(p))
    for ell in ELLS:
        disc = 4 * ell ** 3 + 27 * B * B
        total += int(np.count_nonzero((disc % ell ** 2 == 0) | (B % ell == 0)))
    return total


def main() -> int:
    chunks = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t, c = perf_counter(), thread_time()
        total = chunk()
        chunks.append([t, thread_time() - c])
        if total != TOTAL:
            print(f"speed probe: chunk gave {total}, want {TOTAL}", file=sys.stderr)
            return 1
    json.dump(chunks, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
