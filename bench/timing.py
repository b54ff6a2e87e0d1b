"""Machine-speed calibration and summary statistics for the benchmark.

On a shared machine the interpreter's speed changes by up to 2x for seconds
at a time, as other tenants come and go.  The worker therefore runs a fixed
pure-Python calibration loop every CAL_EVERY_S seconds, also in the middle
of an operation, and scales each operation's time by CAL_REF_NS over the
mean calibration time during and around it.  Reported times are at the speed
where the calibration loop takes CAL_REF_NS; the raw wall times are reported
next to them.  The loop uses the same kinds of work as evensets (exact
fractions, big-integer bit operations, dicts and sorting) and never calls
evensets.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

CAL_REF_NS = 1_700_000
CAL_EVERY_S = 0.1
CAL_REPS = 3
TAIL_LEVELS = (99, 90, 75, 50)
TAIL_BEYOND = 10


def _calibration_loop() -> int:
    acc = Fraction(0)
    seen: dict[int, int] = {}
    pairs = []
    x = 0x9E3779B97F4A7C15
    for i in range(1, 300):
        acc += Fraction(i * 3, 8) - Fraction(i, 4)
        x = (x * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        seen[x & 1023] = seen.get(x & 1023, 0) + (x.bit_count() & 3)
        pairs.append((x >> 7, str(i)))
    pairs.sort()
    return acc.numerator + len(seen) + len(pairs)


def calibrate() -> int:
    """Median wall time, in ns, of CAL_REPS runs of the calibration loop."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter_ns()
        _calibration_loop()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


class SpeedLog:
    """Calibration samples over time, taken every CAL_EVERY_S seconds from a
    SIGALRM handler while running, so that they also fall inside long
    operations.  stolen_ns is the total time spent calibrating; an operation's
    time excludes the part of it that overlaps."""

    def __init__(self):
        self.times: list[int] = []
        self.samples: list[int] = []
        self.stolen_ns = 0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        cal = calibrate()
        t1 = time.perf_counter_ns()
        self.times.append((t0 + t1) // 2)
        self.samples.append(cal)
        self.stolen_ns += t1 - t0
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Speed factor of the interval: CAL_REF_NS over the mean of the
        samples inside it and the nearest one on each side."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        around = self.samples[max(lo - 1, 0):hi + 1]
        return CAL_REF_NS * len(around) / sum(around)


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) at the highest TAIL_LEVELS entry
    with at least TAIL_BEYOND samples beyond it; the median if none has."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = math.ceil(level * n / 100) - 1
        if n - 1 - index >= TAIL_BEYOND:
            return ordered[index], level, n - 1 - index
    return statistics.median(ordered), 50, n // 2
