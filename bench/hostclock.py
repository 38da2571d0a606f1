"""Host-speed-corrected timing for the end-to-end runs.

On a shared host the speed of this process moves for reasons outside the
benchmark.  With identical work (same input, same hash seed, same process)
one ``colon`` op took from about 0.2 s to 0.37 s within a minute, switching
every few seconds, with CPU time moving with wall time.  Whole runs inherit
that drift, so their figures would measure the neighbours, not the program.

``HostClock`` samples the host's speed throughout the run: a real-time
interval timer fires every ``PERIOD_S`` and its handler times one pass of a
fixed calibration loop (``calibrate``), ``Fraction`` arithmetic of the kind
geomideal's exact kernels do.  The calibration never calls geomideal, so a
change to the program cannot move it.  Of the loops tried, this one tracked
the program best: with identical ops whose wall times spread by 30-45%
(interquartile range over median), the corrected times spread by 2-8%.  A
dict-and-tuple loop tracked worse, and a loop walking a large table worse
still.  The speed moves within a second, so the window is short.

``HostClock.span(a, b)`` returns the program's time in ``[a, b]``: handler
time is cut out, and each stretch between two samples is scaled by
``REFERENCE_S / c``, where ``c`` is the median calibration time of the
samples around it.  The result is the time the interval would have taken on
the reference host (``REFERENCE_S`` is the calibration time measured there
when it ran at full speed), so a figure stays in seconds while the host's
drift cancels.  ``HostClock.raw(a, b)`` is the same interval in plain wall
time, with handler time cut out; both are reported.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
# smoothing window: samples on each side of the one whose median is taken
HALF_WINDOW = 1
# calibration time at full speed on the reference host
# (2-vCPU Xeon, Python 3.11.7)
REFERENCE_S = 0.00016


def calibrate():
    """A fixed slice of ``Fraction`` arithmetic; about 0.16 ms at full speed."""
    acc = Fraction(0)
    for i in range(1, 30):
        acc = acc * Fraction(i + 3, 2 * i + 1) + Fraction(7 ** (i % 9), i + 11)
    return acc


class HostClock:
    """Interval timer plus calibration samples; use as a context manager."""

    def __init__(self):
        self.starts, self.ends, self.costs = [], [], []
        self._factors = None

    def sample(self, *_):
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()
        self._factors = None
        return False

    def factors(self):
        """REFERENCE_S / (median calibration time around each sample)."""
        if self._factors is None:
            c, h = self.costs, HALF_WINDOW
            self._factors = [
                REFERENCE_S / statistics.median(c[max(0, k - h):k + h + 1])
                for k in range(len(c))]
        return self._factors

    def _gaps(self, a, b):
        """(program seconds, sample index) for each stretch of [a, b]
        outside the handler; the index is the sample that ends it."""
        k = bisect.bisect_left(self.starts, a)
        out, t = [], a
        while k < len(self.starts) and self.starts[k] < b:
            out.append((self.starts[k] - t, k))
            t = self.ends[k]
            k += 1
        out.append((b - t, min(k, len(self.starts) - 1)))
        return out

    def span(self, a, b):
        """Program time in [a, b], scaled to the reference host's speed."""
        f = self.factors()
        return sum(dt * f[k] for dt, k in self._gaps(a, b))

    def raw(self, a, b):
        """Program time in [a, b] in plain wall seconds."""
        return sum(dt for dt, _ in self._gaps(a, b))

    def host_speed(self):
        """Median sampled speed as a share of the reference host's."""
        return statistics.median(self.factors())
