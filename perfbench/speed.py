"""The machine's speed, sampled next to the workload, to scale wall times.

The shared host this benchmark was written on switches between a fast and
a slow state every few seconds to minutes; in the slow state the same code
takes up to 1.6 times as long, in CPU time as well as in wall time (the
process is not descheduled, the CPU itself runs slower). The split between
the states differs from run to run, so raw wall times of runs of the same
code spread by a quarter or more.

`SpeedProbe` times a fixed loop of NumPy calls on small arrays, which no
spikedse code touches, every INTERVAL_S of wall time from a SIGALRM
handler. The handler runs in the main thread, between the bytecodes of
whatever the workload is doing, so it measures the CPU that the workload's
own thread is on. Each sample is the loop's thread CPU time
(`time.thread_time`), so waiting for the GIL while pool threads run does
not count. `scaled(t0, dt)` multiplies an operation's wall time dt by
REFERENCE_S over the mean sample within MARGIN_S of the operation: the time
the operation would have taken at the reference speed, the speed at which
the loop takes REFERENCE_S. A change to the program changes the
operation's wall time and not the loop's, so it shows in full in the
scaled time.

The handler takes about 1-2 % of the run (a 0.1-0.2 ms loop every 10 ms),
the same share on every commit. Traced runs do not use it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.010
MARGIN_S = 0.25
# The loop's thread CPU time, run back to back, in the fast state of the
# 2-vCPU VM the benchmark was written on (Xeon at 2.0 GHz, Python 3.11,
# NumPy 2.4, OpenBLAS 0.3.31). Sampled between workload code it takes
# longer, so scaled times come out below wall times; only ratios between
# commits matter.
REFERENCE_S = 0.000100
_ONES = np.ones(16)
_SQUARE = np.random.default_rng(0).standard_normal((48, 48))


def _loop() -> np.ndarray:
    # Two halves of about equal time: elementwise calls on a 16-element
    # array, where NumPy's call overhead dominates, and single-threaded
    # 48x48 matrix products. spikedse's per-sample work is made of both
    # kinds. On the host described above, this loop's time followed the
    # workloads' time between the machine's states more closely than either
    # half alone, a pure-Python loop, or elementwise work on a 256 KB array.
    x = _ONES
    for _ in range(40):
        x = x * 0.5 + _ONES
    for _ in range(10):
        _SQUARE @ _SQUARE
    return x


class SpeedProbe:
    """Samples the reference loop while started; see the module doc."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample's end
        self.samples: list[float] = []  # thread CPU seconds of the loop
        self._previous = None

    def _sample(self, signum, frame) -> None:
        c0 = time.thread_time()
        _loop()
        self.samples.append(time.thread_time() - c0)
        self.times.append(time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, dt: float) -> float:
        """Wall seconds dt of an operation started at t0, at the reference speed."""
        lo = bisect.bisect_left(self.times, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.times, t0 + dt + MARGIN_S)
        near = self.samples[lo:hi] or self.samples
        return dt * REFERENCE_S / statistics.fmean(near)

    def summary(self) -> dict:
        quartiles = statistics.quantiles(self.samples, n=4)
        return {"samples": len(self.samples),
                "loop_ms_q1": 1000 * quartiles[0],
                "loop_ms_p50": 1000 * quartiles[1],
                "loop_ms_q3": 1000 * quartiles[2],
                "reference_ms": 1000 * REFERENCE_S}


class WallClock:
    """Stands in for SpeedProbe where no scaling is wanted (traced runs)."""

    def scaled(self, t0: float, dt: float) -> float:
        return dt
