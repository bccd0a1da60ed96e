"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed available to one process drifts by tens of
percent over minutes, and every part of a solve slows down together.  A run
therefore times a fixed pure-Python kernel about twice a second between
solves.  The kernel reads a table of Python ints in a fixed pseudo-random
order, so it pays for interpreter speed and for cache misses the way the
solver's own Python does.  The table is built once and never changes, and
the kernel allocates nothing that survives it, so the heap the solver leaves
behind does not change its time.  The end-to-end times are reported in
reference seconds: a raw time times REFERENCE_KERNEL_S over the median of
the kernel samples taken just before and just after it, which follows the
drift within a run as well as between runs.
"""

from __future__ import annotations

import bisect
import statistics
import time

# A round figure near the kernel's median time on the 2-core x86 sandbox the
# bounds were set on (Python 3.11.7).
REFERENCE_KERNEL_S = 0.010
SAMPLE_EVERY_S = 0.5
WINDOW = 2          # samples on each side of a solve
TABLE_SIZE = 1 << 18
STEPS = 20000


def kernel_s(table):
    """Seconds for STEPS reads of ``table`` in a fixed pseudo-random order."""
    t0 = time.perf_counter()
    acc = 0
    j = 0
    for _ in range(STEPS):
        j = (j * 1103515245 + 12345) & (TABLE_SIZE - 1)
        acc += table[j]
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between solves, and the scale they give."""

    def __init__(self, initial=5):
        self.table = list(range(1000, 1000 + TABLE_SIZE))
        self.at = []        # perf_counter() when each sample was taken
        self.samples = []   # kernel seconds
        for _ in range(initial):
            self._sample()

    def _sample(self):
        self.samples.append(kernel_s(self.table))
        self.at.append(time.perf_counter())

    def tick(self):
        """Take a sample if SAMPLE_EVERY_S has passed since the last one."""
        if time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self._sample()

    def finish(self, final=5):
        for _ in range(final):
            self._sample()

    def scale_at(self, t):
        """Factor that turns raw seconds measured at moment ``t`` into
        reference seconds, from the WINDOW samples either side of ``t``."""
        p = bisect.bisect(self.at, t)
        return REFERENCE_KERNEL_S / statistics.median(
            self.samples[max(0, p - WINDOW):p + WINDOW])
