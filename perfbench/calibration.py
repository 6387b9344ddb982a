"""CPU-speed calibration for a shared host, standard library only.

On a virtual machine that shares cores with other tenants, the speed of
one core changes by up to about 1.5x in episodes that last from seconds
to minutes, so the wall time of a fixed pass wanders with the host's
load rather than with the program.  `scale()` times a fixed pure-Python
loop for a moment on each usable CPU in turn (BLAS work runs on all of
them) and returns REFERENCE_S / (the mean of the per-CPU medians): the
factor that turns a wall time measured right after it into seconds on a
CPU that runs the loop in REFERENCE_S.  A change to the program moves the
scaled time as it moves the wall time; a change in the host's load moves
both the wall time and the loop, and cancels.
"""

import os
import statistics
import time

ITERATIONS = 20000  # float additions in one timed loop
REFERENCE_S = 1.5e-3  # the loop's duration on the reference CPU (75 ns per iteration)
WINDOW_S = 0.15  # how long one calibration repeats the loop


def _loop():
    total = 0.0
    for j in range(ITERATIONS):
        total += j * 1.0001
    return total


def loop_seconds(window=WINDOW_S):
    """Median duration of the calibration loop over `window` seconds."""
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < window:
        t0 = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scale(window=WINDOW_S):
    """Factor from wall seconds now to seconds on the reference CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    try:
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(loop_seconds(window / len(cpus)))
    finally:
        os.sched_setaffinity(0, cpus)
    return REFERENCE_S / statistics.mean(per_cpu)
