"""Machine-speed gauge, so that timings from a shared, noisy host compare.

On a host shared with other tenants the same pure-Python work can take 1.6x
longer from one second to the next (another tenant on the sibling hardware
thread, frequency changes), and a 25 s run cannot average that away.  The
gauge runs a fixed stdlib-only kernel, six small 3x3 Fraction matrix
products taking about 1 ms, every 50 ms on a background thread of the
benchmark process.  A run divides each unit's wall time by the slowdown the
kernel saw during it: the mean kernel time over the unit divided by
``REFERENCE_NS``, the kernel's time on an idle 2-core x86 box with Python
3.11.  Reported times are therefore seconds at the reference speed; the raw
wall-clock figures are printed beside them.  Of the kernels tried (dict and
str churn, growing Fractions, small dataclasses), this one's slowdown
tracked the workloads' most closely.  The kernel touches no elemop code, so
a change to the library cannot move it; it costs the workload about 2% of
its time.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

REFERENCE_NS = 700_000
PERIOD_S = 0.05


_SEED = tuple(tuple(Fraction(i - j, i + j + 1) for j in range(3)) for i in range(3))


def kernel() -> tuple:
    """Six products of 3x3 Fraction matrices, entries kept small."""
    m = _SEED
    for _ in range(6):
        m = tuple(
            tuple(sum((m[i][k] * _SEED[k][j] for k in range(3)), Fraction(0)) for j in range(3))
            for i in range(3)
        )
        m = tuple(tuple(Fraction(x.numerator % 97, x.denominator % 89 + 1) for x in row) for row in m)
    return m


def spot_slowdown(repeats: int = 5) -> float:
    """Slowdown measured right now, in the calling thread."""
    durations = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        kernel()
        durations.append(time.perf_counter_ns() - t0)
    return statistics.median(durations) / REFERENCE_NS


class SpeedGauge:
    """Samples the kernel on a background thread while the block runs."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-gauge", daemon=True)

    def __enter__(self) -> "SpeedGauge":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed gauge thread did not stop")

    def _sample(self) -> None:
        clock = time.perf_counter_ns
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            kernel()
            self.samples.append((t0, clock() - t0))

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Mean kernel time between the two instants over the reference;
        the nearest sample stands in for an interval too short to hold one."""
        if not self.samples:
            return spot_slowdown()
        inside = [d for t, d in self.samples if start_ns <= t <= end_ns]
        if not inside:
            middle = (start_ns + end_ns) // 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(inside) / REFERENCE_NS
