"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants, the speed of the CPU can swing by a
common factor in phases of seconds. On the 2-core host this benchmark was
written on, the same stability op took 13 ms in some phases and 19 ms in
others, and a fixed numpy kernel slowed in step: over 2 s buckets the
coefficient of variation of their ratio was 2-5%, against 12-19% for the
op time alone. The benchmark therefore runs that kernel between ops and
scales every op time to a host on which the kernel takes ``REFERENCE_MS``,
using the kernel runs close to the op. Raw wall times are reported beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time on the host above in its fast phase, so scaled times read
# close to the wall times measured there.
REFERENCE_MS = 1.3
# Kernel runs within this many seconds of an op set its scale. Phases can
# turn within a second: over the same ten 30 s stability-256 runs, the
# tail's spread was 6.5% with 0.1 s and 10% with 0.5 s.
WINDOW_S = 0.1


class HostSpeed:
    """Timed runs of a fixed kernel: a noise draw, rounding and row FFTs,
    the mix of work the ops themselves do.

    The kernel writes into buffers allocated once. A kernel that allocated
    its arrays would run at a speed set by the allocator's state, which the
    program's own allocations change.
    """

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._weights = self._rng.random((256, 256))
        self._buf = np.empty((256, 256))
        self._spectrum = np.empty((256, 129), dtype=np.complex128)
        self._at_ns: list[int] = []
        self.kernel_ms: list[float] = []

    def _kernel(self) -> None:
        self._rng.standard_normal(out=self._buf)
        self._buf *= self._weights
        np.rint(self._buf, out=self._buf)
        np.fft.rfft(self._buf, axis=1, out=self._spectrum)

    def sample(self, seconds: float) -> None:
        """Run the kernel for about ``seconds``, at least once."""
        stop = time.perf_counter_ns() + int(seconds * 1e9)
        while True:
            start = time.perf_counter_ns()
            self._kernel()
            end = time.perf_counter_ns()
            self._at_ns.append(end)
            self.kernel_ms.append((end - start) / 1e6)
            if end >= stop:
                return

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that maps wall time spent in [start_ns, end_ns] to the reference host."""
        window = int(WINDOW_S * 1e9)
        lo = bisect.bisect_left(self._at_ns, start_ns - window)
        hi = bisect.bisect_right(self._at_ns, end_ns + window)
        return REFERENCE_MS / statistics.median(self.kernel_ms[lo:hi])
