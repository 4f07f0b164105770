"""Request timing normalized to the machine's current speed.

On a small shared machine the speed of a core changes by up to 1.6x within
seconds, and stays low for minutes at a time, as other tenants come and go.
A raw time then says as much about the host as about the program: the same
20-trial ``verify all`` took from 5.6 to 7.4 s.  So every request is
bracketed by a short calibration loop of pure-Python rational and big-integer
arithmetic, which shares no code with jetframes, and its time is scaled by
``REFERENCE_CAL_S`` over the mean of the two calibrations.  The result is
the request's time on an uncontended core of the machine the benchmark was
built on, where the calibration takes ``REFERENCE_CAL_S``.

The latency percentiles are taken over every request's scaled time, and the
throughput is the work done over the summed scaled time of all requests, so
a slow minority of calls moves them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_CAL_S = 0.004
_BIG = 3 ** 400


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 1) * Fraction(3, 7)
    acc = 0
    for i in range(6500):
        acc += _BIG * (i + 7) // (i + 1)
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` at reference speed, from the calibrations around it."""
    return seconds * REFERENCE_CAL_S / ((cal_before + cal_after) / 2)


class Requests:
    """Scaled times of the requests of one run.

    Calibration i runs before request i and calibration i + 1 after it, so
    ``add`` must follow its request directly.
    """

    def __init__(self):
        self.cals = [calibrate()]
        self.times: list[float] = []
        self.units = 0

    def add(self, seconds: float, units: int = 1) -> None:
        self.cals.append(calibrate())
        self.times.append(scaled(seconds, *self.cals[-2:]))
        self.units += units

    def total(self) -> float:
        return sum(self.times)

    def summary(self) -> dict:
        """Throughput and per-request latency percentiles of the run."""
        p90 = statistics.quantiles(self.times, n=10)[-1] if len(self.times) > 1 \
            else self.times[0]
        return {
            "ops_per_s": self.units / self.total(),
            "request_ms.p50": statistics.median(self.times) * 1e3,
            "request_ms.p90": p90 * 1e3,
            "requests": len(self.times),
            "machine_speed": REFERENCE_CAL_S / statistics.median(self.cals),
        }
