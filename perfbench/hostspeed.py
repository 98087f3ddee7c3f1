"""A fixed probe of the host's speed, timed between reports.

The host this benchmark was built on slows by up to 1.8x for seconds to
minutes at a time, for reasons outside the benchmarked process: a
pure-Python spin loop slows by the same factor, and CPU time slows as
much as wall time.  Across the runs recorded in README.md, raw report
times spread by 6-32% (quartiles over median) and the adjusted ones by
2-10%.  So each reported time is scaled to a nominal host speed:

    adjusted = wall * NOMINAL_S / (mean of the probes just before and
                                   just after the timed span)

The probe is deakit-free numpy and Python work of the kind the LP layer
does, so a change to deakit does not change it.  Raw wall times are kept
beside the adjusted ones in the results file.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's median time on the 2-vCPU host the bounds were set on
NOMINAL_S = 0.0004
_A = np.random.default_rng(0).random((8, 300))
_T = np.random.default_rng(1).random((8, 64))


def probe() -> float:
    """Median time of five runs of a fixed piece of work.

    The median of five keeps a stall of a millisecond or two out of the
    reading while still following a slowdown that lasts.
    """
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(60):
            x = _A @ _A[0]
            np.outer(x, _T[1])
            sum(range(300))
        times.append(time.perf_counter() - t)
    return sorted(times)[2]


class Paced:
    """Times spans between probes and scales them to the nominal host."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def measure(self, fn, *args):
        """Run fn(*args): (result, raw wall, adjusted wall, start time)."""
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return result, wall, wall * NOMINAL_S / ((before + self.last) / 2), \
            start
