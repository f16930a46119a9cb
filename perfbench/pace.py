"""Pacing: times scaled to a reference speed of the host.

A small shared host runs the same code faster or slower by a third or more
in phases of seconds to minutes.  A fixed pure-Python loop, timed next to
the code under test, tracks that pace: on a 2-vCPU host its time and that of
a numpy eigenvalue solve moved together within a few percent while each
moved by 25%.  A paced time is the time measured, times CAL_REFERENCE_S
over the loop's time at that moment: the time the code takes when the loop
takes CAL_REFERENCE_S.
"""

import statistics
import time

CAL_ITERATIONS = 20_000
# about the loop's median time on a 2-vCPU host with Python 3.11, where it
# takes 0.7 to 5 ms
CAL_REFERENCE_S = 1.0e-3


def calibrate():
    """Seconds the fixed loop takes: the host's pace at this moment."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x += i % 7
    return time.perf_counter() - t0


def paced(latencies, cals):
    """Latencies at the reference pace.  cals[i] was measured just before
    job i and cals[i + 1] just after it; each latency is scaled by the
    median of the calibrations around its job."""
    return [x * CAL_REFERENCE_S / statistics.median(cals[max(0, i - 2):i + 4])
            for i, x in enumerate(latencies)]
