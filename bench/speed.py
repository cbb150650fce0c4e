"""Machine-speed probe for the end-to-end times.

On a shared host each core flips between a fast and a slow mode (about
1.8x apart) every second or so, so raw times of identical work spread too
widely between runs to gate a change.  While a pass runs, an interval
timer interrupts it every half second and the signal handler times a short
fixed kernel; the kernel's time is taken out of the pass time, and the pass
time is scaled by the kernel's nominal time over its mean time.  The mean,
not the median: with two speed modes the mean follows the share of time
spent slow, as the pass's total time does.  The kernels are independent of
contactmono, so only the program's own speed moves the scaled times; raw
times and kernel samples stay in the detail record.

Contention slows Python object arithmetic and numpy sparse loops by
different factors, so each workload names the kernel in the style of its
dominant layer: "exact" (rational arithmetic, like ExactComplex) or
"float" (sparse matrix-vector products, like lsqr).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.5  # timer interval while a pass runs

# each kernel's time in the fast mode of a 2-vCPU Intel Xeon host (Python
# 3.11, numpy 2.4), so scaled times read close to that host's undisturbed ones
NOMINAL_S = {"exact": 0.055, "float": 0.048}


class SpeedProbe:
    """Samples of one fixed kernel, taken on demand or on a timer."""

    def __init__(self, kind: str):
        if kind not in NOMINAL_S:
            raise ValueError(f"unknown kernel {kind!r}")
        self.kind = kind
        self.samples = []
        if kind == "float":
            import numpy as np
            import scipy.sparse as sp

            self._np = np
            rng = np.random.default_rng(0)
            self._mat = sp.random(20000, 20000, density=5e-4, random_state=rng, format="csr")

    def _kernel(self):
        if self.kind == "exact":
            acc = Fraction(0)
            for i in range(1, 12000):
                acc += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, 7 + i % 5)
        else:
            np = self._np
            v = np.ones(self._mat.shape[0])
            for _ in range(100):
                v = self._mat @ v
                v = v / np.linalg.norm(v)

    def sample(self) -> float:
        """Time the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @contextlib.contextmanager
    def during(self):
        """Sample every PERIOD_S while the body runs.

        Yields a list that, on exit, holds the body's wall time with the
        samples taken out.
        """
        taken = [0.0]

        def on_timer(signum, frame):
            taken[0] += self.sample()

        previous = signal.signal(signal.SIGALRM, on_timer)
        out = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            out.append(time.perf_counter() - t0 - taken[0])
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that takes the sampled stretch to the nominal machine speed."""
        return NOMINAL_S[self.kind] / statistics.mean(self.samples)
