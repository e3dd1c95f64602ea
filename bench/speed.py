"""Machine-speed calibration for timings taken on a shared machine.

The cores of the machine the benchmark was defined on are shared with other
tenants, and for seconds or minutes at a time they run 1.2 to 1.8 times
slower. A raw wall time then says more about the neighbours than about the
code. While a timed section runs, ``Speedometer`` times a fixed numpy kernel
every ``PERIOD_S``. It runs the kernel twice and keeps the second time, so
the sample does not depend on what the workload left in the caches. It does
so from a SIGALRM handler, so the kernel runs on the same thread and core as
the workload. The work done in an interval is the busy time multiplied by
the mean speed over the kernel samples taken in it. Here speed is
``REFERENCE_S`` divided by a sample's time. The result is in seconds at the
reference speed. On an idle machine it reads close to the raw wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 230e-6  # the warm kernel on an idle core of the 2-core machine the benchmark was defined on
_ARRAY = np.arange(31, dtype=np.int64)


def kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python glue."""
    start = time.perf_counter()
    total = 0
    for i in range(60):
        total += int(np.minimum(np.cumsum(_ARRAY), i).sum())
    return time.perf_counter() - start


class Speedometer:
    """Samples the kernel every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        kernel()  # the workload has evicted the kernel's code and data; time it warm
        elapsed = kernel()
        self.samples.append((time.perf_counter(), elapsed))

    def _inside(self, start: float, end: float) -> list[float]:
        return [c for t, c in self.samples if start <= t - c and t <= end]

    def factor(self, start: float = -np.inf, end: float = np.inf) -> float | None:
        """Mean speed relative to the reference over ``[start, end]``; None without samples."""
        inside = self._inside(start, end)
        return sum(REFERENCE_S / c for c in inside) / len(inside) if inside else None

    def kernel_seconds(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Time the kernel itself took inside ``[start, end]``."""
        return sum(self._inside(start, end))

    def seconds(self, start: float, end: float) -> float:
        """Work done in ``[start, end]``, in seconds at the reference speed."""
        return calibrated(end - start, self.kernel_seconds(start, end), self.factor(start, end))


def calibrated(wall: float, kernel_s: float, factor: float | None) -> float:
    """Busy time (``wall`` less the kernel's own ``kernel_s``) at the reference speed."""
    busy = wall - kernel_s
    return busy if factor is None else busy * factor
