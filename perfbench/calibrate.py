"""Machine-speed helper, run by run.py as a child that never imports eccrng.

For each line it reads on stdin it times three runs of a fixed pure-Python
loop and prints the median in seconds.  It exits at end of input.  Because
the program's code never runs in this process, the reading depends on the
machine's current speed and not on the program's heap, caches or threads.

Usage: python3 perfbench/calibrate.py  (one request per input line)
"""

import statistics
import sys
import time


def loop_s() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc ^= i
    return time.perf_counter() - t0


for _ in sys.stdin:
    print(repr(statistics.median(loop_s() for _ in range(3))), flush=True)
