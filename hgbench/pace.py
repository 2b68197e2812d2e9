"""Host pace: how fast this host ran plain Python over a stretch of a run.

The benchmark runs on a few cores of a shared host that switches between a
fast and a slow phase, sometimes every few hundred milliseconds, sometimes
every few tens of seconds; in the slow phase the same code takes up to 2x
as long, with CPU time growing as wall time does, so no process clock
removes it.  Runs of the same code then differ by more than any bound a
speed-up could be judged by.  So a fixed calibration kernel, written here
and never touched by the engine, is timed between instances throughout the
run (a 4.5 ms pace sample every SAMPLE_EVERY_S, about 4% of the run), and
the engine's decide and verify times are reported at the reference pace:

    reported = measured / (mean kernel time / REFERENCE_S) ** exponent

with the mean over the pace samples taken within WINDOW_S of the
measurement's midpoint, some twenty of them.  The window follows phases
that last a second or more, which scaling a whole run by one factor does
not: a run that flips between phases then has decisions of two speeds,
and its median and tail depend on which decisions fell in which phase.
The mean, not the median: a stretch that is a third slow phase takes a
third longer, which the mean of its samples follows and a median of two
modes does not.  Within a phase the host's speed also flickers on a
millisecond scale, which the mean of the window's samples averages out.

The slow phase does not slow all code alike, so each workload has its own
exponent (workloads.PACE_EXPONENT), measured on the 2-core x86 host this
benchmark was sized on as the slope of ln(measured decide_s) on ln(mean
kernel time) over runs of one seed.  A change to the engine moves the
reported value exactly as it moves the measured one, since the factor
depends on the kernel alone.

The kernel is Fraction and big-int arithmetic in tight loops, with no
mpmath and no shared state, so it warms no cache the engine reads, and the
garbage collector is off while it runs, so its time does not depend on how
many objects the engine holds.  A kernel that reads a table larger than the
caches was tried and dropped: its time followed the engine work that ran
before it, not the host.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# seconds one kernel call takes on the host this benchmark was sized on; it
# only fixes the scale of reported times
REFERENCE_S = 0.0045

# a pace sample is taken before an instance once this much time has passed
# since the last one: many short samples follow the share of the run spent
# in each phase more closely than a few long ones
SAMPLE_EVERY_S = 0.1

# pace samples within this many seconds of a measurement scale it
WINDOW_S = 1.0


def kernel() -> int:
    """A fixed amount of Fraction and big-int work; the result is checked so
    the work cannot be skipped."""
    acc = Fraction(0)
    for k in range(1, 90):
        acc += Fraction(k, k * k + 3)
    term = Fraction(1)
    for n in range(1, 400):
        term *= Fraction(2 * n + 3, 2 * n + 4)
    x = 3 ** 900
    for _ in range(12):
        x = (x * x) >> 1400
    return acc.denominator % 1000003 + term.denominator % 10007 + x % 1009


class Pace:
    """Pace samples over a run, and the factor they give a stretch of it."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at each sample
        self.kernel_s: list[float] = []  # kernel time of each sample
        self._check = kernel()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            value = kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        if value != self._check:
            raise RuntimeError("pace kernel returned a different value")
        self.times.append((t0 + t1) / 2.0)
        self.kernel_s.append(t1 - t0)

    def tick(self) -> None:
        """Take a pace sample if the last one is older than SAMPLE_EVERY_S;
        called between measurements, never inside one."""
        if not self.times or time.perf_counter() - self.times[-1] > SAMPLE_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken between perf_counter times
        `start` and `end`, over the reference."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo < 2:  # too few samples inside: the nearest on either side
            mid = bisect.bisect_left(self.times, (start + end) / 2.0)
            lo, hi = max(0, mid - 1), mid + 1
        return statistics.fmean(self.kernel_s[lo:hi]) / REFERENCE_S

    def scale(self, measured: float, at: float, exponent: float) -> float:
        """`measured`, taken around perf_counter time `at`, at the reference
        pace.  Call once the run's samples are all taken."""
        return measured / self.slowdown(at - WINDOW_S, at + WINDOW_S) ** exponent
