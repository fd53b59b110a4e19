"""How fast the CPU runs while a workload runs, measured beside it.

The benchmark's machine is a few virtual CPUs of a shared host.  Each
virtual CPU's speed moves between levels some 60% apart (a fixed kernel took
46, 60 or 73 ms), holds a level for seconds to tens of seconds, and changes
independently of the other CPUs.  A timed iteration of a few seconds to 20 s
sees a handful of such changes, so iteration times of the same work spread
by a quarter from run to run, more than any bound a regression gate could
use.

`Sampler` is a thread of the benchmark's process, which `run.py` pins to one
CPU, so the sampler and the workload share that CPU.  Every INTERVAL_S it
runs a small fixed kernel, numpy and standard-library code only, and records
the kernel's time on its own thread's CPU clock.  The mean kernel time over
an iteration is the speed that iteration saw.  On this machine the two
correlated at 0.85-0.88 over 3-D Radon and exact-algebra iterations, and
scaling each iteration's wall time by it,

    wall time * REFERENCE_S / (mean kernel time during the iteration),

halved the iterations' spread.  The scaled value is the time the iteration
would take where the kernel takes REFERENCE_S.  A change to pwkit moves the
workload's time and not the kernel's.  The sampler costs the workload about
1% of its time, the same on every commit.
"""

import statistics
import threading
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.05
# a typical kernel time on the 2-vCPU Xeon (2.1 GHz) of the baseline
REFERENCE_S = 290e-6

_VECTOR = np.random.default_rng(20101209).random(4096)
_RATIONALS = [Fraction(i + 1, 2 * i + 3) for i in range(40)]


def kernel(out):
    """Interpreted rational arithmetic and in-cache numpy passes into `out`,
    an array shaped like _VECTOR."""
    total = Fraction(0)
    for f in _RATIONALS:
        total += f * f
    for _ in range(20):
        np.multiply(_VECTOR, 1.0, out=out)
    return total


class Sampler(threading.Thread):
    """Times `kernel` every INTERVAL_S until `stop` is called."""

    def __init__(self):
        super().__init__(name="speed-sampler", daemon=True)
        self.samples = []                # (perf_counter at end, seconds)
        self._stopped = threading.Event()
        self._out = np.empty_like(_VECTOR)

    def run(self):
        while not self._stopped.wait(INTERVAL_S):
            c0 = time.thread_time()
            kernel(self._out)
            self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def stop(self):
        self._stopped.set()
        self.join()

    def mean_between(self, t0, t1):
        """Mean kernel time of the samples taken in [t0, t1], without the
        lowest and highest tenth.  An iteration's time adds up its work at
        the speed of each moment, so the mean is the speed it saw.  An
        interval too short to hold a sample gets the mean of all samples."""
        inside = sorted(s for t, s in self.samples if t0 <= t <= t1)
        if not inside:
            inside = sorted(s for _, s in self.samples)
        cut = len(inside) // 10
        return statistics.mean(inside[cut:len(inside) - cut])
