"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: over a minute the same
operation's time can swing by half as other tenants come and go, and a
20-second run sits in whichever phase it lands in. So before every timed
operation the benchmark runs a fixed reference kernel (:func:`kernel`,
which lives here and never changes with the program under test) and
divides the operation's time by the host's speed at that moment:

    normalised = measured x (REFERENCE_S / local kernel time) ** sensitivity

where the local kernel time is the median of the kernel samples nearest
the operation, and ``sensitivity`` is how strongly the workload's
operation slows when the kernel slows (the slope of log operation time
on log kernel time across the host's slow and fast phases; each workload
module states its measured value as ``SENSITIVITY``). A normalised time
reads as "seconds on a host where the kernel takes :data:`REFERENCE_S`";
a change to the program moves it as it moves the raw time, while a slow
phase of the host largely cancels. Raw times are printed beside every
normalised metric.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import List, Optional

from stats import median

#: nominal kernel time that normalised timings are expressed against
REFERENCE_S = 0.005

#: kernel samples (either side of an operation) in its local speed
WINDOW = 2


class _Uop:
    __slots__ = ("dst", "src", "latency", "ready")

    def __init__(self, dst: int, src: int, latency: int) -> None:
        self.dst = dst
        self.src = src
        self.latency = latency
        self.ready = 0


def kernel(n: int = 3000) -> int:
    """A toy out-of-order pipeline: the object, list, dict and heap work
    an interpreted simulator does, with a fixed pseudo-random stream."""
    regs = [0] * 32
    rob: List[_Uop] = []
    heap: list = []
    table: dict = {}
    now = retired = 0
    x = 12345
    for seq in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        uop = _Uop(x & 31, (x >> 5) & 31, 1 + (x >> 10) % 4)
        uop.ready = max(now, regs[uop.src]) + uop.latency
        regs[uop.dst] = uop.ready
        heapq.heappush(heap, (uop.ready, seq, uop))
        rob.append(uop)
        key = (x >> 3) & 1023
        table[key] = table.get(key, 0) + 1
        if len(rob) > 64:
            now = max(now, heap[0][0])
            while heap and heap[0][0] <= now:
                heapq.heappop(heap)
                retired += 1
            del rob[:8]
    return retired


def _time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples taken before operations, and the normalisation of
    each operation's time by the samples around it."""

    def __init__(self, sensitivity: float = 1.0) -> None:
        self.sensitivity = sensitivity
        self.samples: List[float] = []

    def tick(self, every_cpu: bool = False) -> int:
        """Sample the kernel now; returns the sample's index, which the
        operation that follows passes to :meth:`normalise`.

        An operation whose work spreads over every CPU (worker
        processes) passes ``every_cpu``: the kernel then runs once on
        each CPU this process may use, and the sample is their mean,
        since the CPUs of a shared host slow down independently."""
        cpus = sorted(os.sched_getaffinity(0)) \
            if every_cpu and hasattr(os, "sched_getaffinity") else []
        if len(cpus) < 2:
            self.samples.append(_time_kernel())
            return len(self.samples) - 1
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(_time_kernel())
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append(sum(times) / len(times))
        return len(self.samples) - 1

    def local(self, index: int, last: Optional[int] = None) -> float:
        """Median kernel time around sample ``index`` or, for a long
        operation sampled throughout, over samples ``index..last``."""
        if last is not None:
            return median(self.samples[index:last + 1])
        lo = max(0, index - WINDOW)
        return median(self.samples[lo:index + WINDOW + 1])

    def normalise(self, seconds: float, index: int,
                  last: Optional[int] = None) -> float:
        return seconds * (REFERENCE_S / self.local(index, last)) \
            ** self.sensitivity

    def factor(self) -> float:
        """Median kernel time over :data:`REFERENCE_S`: how much slower
        than nominal the host ran during this run (printed as a fact)."""
        return median(self.samples) / REFERENCE_S
