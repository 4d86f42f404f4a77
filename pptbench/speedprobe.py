"""CPU speed probe: ``python3 speedprobe.py OUT_FILE``.

Runs beside the benchmark on the same CPU.  Every 50 ms it times one fixed
unit of pure-Python work by its own CPU time, so time spent preempted does
not count, and appends ``start unit_seconds`` to OUT_FILE.  On a shared host
the CPU's speed changes by up to ~1.75x in phases of seconds to minutes;
the unit time tracks it.  Runs until terminated.
"""

import sys
import time

UNIT_ITERATIONS = 5000
INTERVAL_S = 0.05


def unit():
    s = 0
    for i in range(UNIT_ITERATIONS):
        s += i * i % 7
    return s


def main():
    with open(sys.argv[1], "w", buffering=1) as out:
        while True:
            start = time.perf_counter()
            cpu = time.thread_time()
            unit()
            out.write(f"{start} {time.thread_time() - cpu}\n")
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
