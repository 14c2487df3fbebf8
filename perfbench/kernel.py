"""Fixed reference kernel used to normalise every reported time against machine drift.

On a shared virtual machine the same pure-Python work can take 50% longer from
one minute to the next, while the ratio of a query's time to this kernel's time
taken right next to it stays nearly constant.  Each timed operation is therefore
bracketed by kernel timings and rescaled to the nominal kernel time below.

Neither ``kernel`` nor ``NOMINAL_KERNEL_S`` may change: either change would
rescale every figure the benchmark has reported before.
"""

from __future__ import annotations

import time

# Fixed once, from the kernel timings measured on the reference machine
# (Python 3.11.7, 2 vCPUs), whose run medians ranged over 0.45-0.92 ms; see README.md.
NOMINAL_KERNEL_S = 0.0006


def kernel() -> int:
    """Dict and tuple churn, the same kind of work as the state-space search."""
    seen: dict[tuple[int, ...], int] = {}
    state = (3, 1, 4, 1, 5, 9, 2, 6)
    for i in range(1200):
        state = state[1:] + ((state[0] * 31 + state[3] + i) % 97,)
        seen[state] = seen.get(state, 0) + 1
        if i % 5 == 0:
            seen.pop(state[::-1], None)
    return len(seen)


def kernel_seconds() -> float:
    """Kernel time: the fastest of three back-to-back runs, so that one
    interruption does not pass for a slow machine."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class DriftClock:
    """Times operations and rescales them by the adjacent kernel timings.

    The kernel run after one operation is also the kernel run before the next,
    so each operation is bracketed by two kernel timings at the cost of one.
    """

    def __init__(self) -> None:
        self.kernel_samples: list[float] = []
        self._before = self._sample()

    def _sample(self) -> float:
        k = kernel_seconds()
        self.kernel_samples.append(k)
        return k

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, normalised seconds, raw seconds)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = self._sample()
        scale = NOMINAL_KERNEL_S / ((self._before + after) / 2.0)
        self._before = after
        return result, raw * scale, raw
