"""The machine's speed, sampled all through a run.

The machine this benchmark was tuned on is a shared virtual machine whose
speed drifts by up to 30% over minutes, with nothing to see from inside
but the slowdown itself: process CPU time slows just as wall time does,
and no time is stolen.  Runs made minutes apart then differ by more than
any bound a change could be judged by.

So while a run measures, a SIGALRM timer runs a fixed pure-Python probe
(exact fractions and dict updates, the kind of work lierine does) every
PERIOD_S seconds and records its duration.  `factor` is REF_PROBE_S over
the run's median probe time; multiplying a time by it gives the time at
the speed at which the probe takes REF_PROBE_S.  On that machine the
factor followed the cohomology op's own slowdown with a correlation of
about 0.9, and halved the run-to-run spread.

The probe runs inside the timed ops.  `clock` leaves out the time spent
in probes, so it can stand in for `time.perf_counter`.  No thread or
process is started.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

PERIOD_S = 0.02
REF_PROBE_S = 400e-6  # the probe's usual time within a run, on the machine in README.md


def probe() -> dict:
    """Fixed work; never change it, or factors stop being comparable."""
    acc: dict = {}
    x = Fraction(0)
    for i in range(1, 40):
        x = x + Fraction(i, 7) * Fraction(3, i + 1)
        key = (i % 11, i % 3)
        acc[key] = acc.get(key, 0) + x
    return acc


class SpeedMeter:
    def __init__(self) -> None:
        self.samples: List[float] = []
        self.probe_s = 0.0  # total time spent in the signal handler

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        took = perf_counter() - start
        self.samples.append(took)
        self.probe_s += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """Seconds, like `perf_counter`, minus the time spent probing."""
        return perf_counter() - self.probe_s

    def factor(self) -> float:
        """REF_PROBE_S over the median probe time so far."""
        return REF_PROBE_S / statistics.median(self.samples)
