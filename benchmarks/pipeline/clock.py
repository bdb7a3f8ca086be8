"""Host-speed calibration of measured intervals.

On the shared hosts this benchmark runs on, the same code runs at
different speeds from second to second: a fixed Python loop took
anywhere from 1.0x to 2.3x its fastest time within half a minute, in
CPU time as well as wall time, and a slow stretch can last a whole run.
Neither the fastest nor the median time over a run's rounds hides that.

:class:`SpeedClock` therefore probes the host's current speed with a
short fixed reference kernel (:func:`reference`) before every unit of
work and, through :class:`~benchmarks.pipeline.layers.Checkpoints`,
between the program's phase-grained calls inside a unit.  A measured
interval is reported as the time it would have taken on an unloaded
host of the class the benchmark was built on: each stretch between two
probes is scaled by :data:`REFERENCE_S` over the mean of the two probe
readings around it, and the probes' own time is left out.
"""

import bisect
import time
import zlib
from typing import List

#: The reference kernel's time on an unloaded host of the class the
#: benchmark was built on (2 vCPUs of a shared Intel Xeon at 2.1 GHz,
#: Python 3.11): the fastest readings of 200-second runs of each
#: workload were 1.14-1.21 ms.  Calibrated times are seconds on such a
#: host.
REFERENCE_S = 1.15e-3

#: Least time between two probes inside a unit, in seconds.  A probe
#: takes about 3 ms on a fast host, so they add about 6% to a run.  At
#: 0.2 s a 100-ms experiment ran between two probes only, and its
#: calibrated time spread twice as far over 30 rounds.
INTERVAL = 0.05

_BLOB = b"".join(
    (i * 2654435761 >> 9 & 0xFFFFFFFF).to_bytes(4, "little")
    for i in range(10000)
)


def _step(table, history, pc):
    index = (pc ^ history) & 1023
    counter = table[index]
    taken = (pc * 2654435761 >> 7) & 1
    table[index] = min(counter + 1, 3) if taken else max(counter - 1, 0)
    return ((history << 1) | taken) & 0xFFF


def _python(steps=4000):
    """Interpreter-bound: calls, list and dict updates on small ints."""
    table = [1] * 1024
    history = 0
    seen = {}
    for pc in range(steps):
        history = _step(table, history, pc)
        seen[pc & 255] = history
    return history


def _zlib():
    return len(zlib.compress(_BLOB, 6))


def reference() -> float:
    """Seconds of the reference kernel: the geometric mean of a Python
    loop and a zlib compression.  Of the probes tried (these two and a
    numpy pass), this pair tracked the program's own slowdowns best."""
    product = 1.0
    for kernel in (_python, _zlib):
        start = time.perf_counter()
        kernel()
        product *= time.perf_counter() - start
    return product ** 0.5


class SpeedClock:
    """Probes taken during a run, and intervals calibrated by them."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.readings: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        reading = reference()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.readings.append(reading)

    def tick(self) -> None:
        """Probe if :attr:`interval` has passed since the last probe."""
        now = time.perf_counter()
        if not self.ends or now - self.ends[-1] >= self.interval:
            self.probe()

    def calibrate(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take on the reference host.

        The interval must start after the first probe.  Time inside
        probes does not count; a stretch after the last probe is scaled
        by that probe alone.
        """
        gap = bisect.bisect_right(self.ends, start) - 1
        if gap < 0:
            raise ValueError("interval starts before the first probe")
        total = 0.0
        last = len(self.readings) - 1
        while gap <= last:
            lo = max(start, self.ends[gap])
            if gap < last:
                hi = min(end, self.starts[gap + 1])
                speed = (self.readings[gap] + self.readings[gap + 1]) / 2
            else:
                hi = end
                speed = self.readings[gap]
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / speed
            if gap == last or self.starts[gap + 1] >= end:
                break
            gap += 1
        return total
