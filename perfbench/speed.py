"""The CPU's speed while a child runs, from a fixed reference loop.

On a shared host the same iteration takes from 1x to 1.5x its fastest time,
in spells of a few seconds to minutes, and CPU time grows with wall time, so
neither measures the program alone.  A fixed pure-Python loop, timed on the
same CPU in the same process while the workload runs, slows down with it.
``SpeedProbe`` times the loop from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time.  ``REFERENCE_S / sample`` is the loop's speed
relative to the reference (1.0 when the loop takes ``REFERENCE_S``).  The
workloads slow down more than the loop: over iterations on the host in
README.md, the log of their time fell with the log of the loop's speed at
slopes of 1.2 to 1.5.  So the workload's speed is taken as the loop's speed
to the power ``SENSITIVITY``, the low end of that range, and ``speed`` is
its mean over the samples.  A time multiplied by it is the time the work would have taken
at the reference speed ("reference seconds").

The samples are evenly spaced in wall time, so their mean speed times the
wall time is the work done in reference seconds.  Between interpreter
bytecodes only: a long C call delays a sample until it returns.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# The loop's time on the machine measured in perfbench/README.md (Python
# 3.11.7, x86_64 Xeon) at its fast spells.  Only a scale: both commits of a
# comparison share it.
REFERENCE_S = 0.0006
SENSITIVITY = 1.2


def reference_loop() -> int:
    """A fixed piece of interpreter work: integer arithmetic and dict stores."""
    table = {}
    s = 0
    for i in range(4000):
        s = (s * 31 + i) % 1000003
        table[i & 1023] = s
    return s


def time_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def speed_of(samples: list[float]) -> float:
    """Mean workload speed relative to the reference over samples of the loop's time."""
    return statistics.fmean((REFERENCE_S / s) ** SENSITIVITY for s in samples)


class SpeedProbe:
    """Samples the loop's time every ``interval`` seconds while entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval
            self.samples.append(time_loop())

    def summary(self) -> dict:
        """``speed``, and ``probe_s``: the time the samples took from the run."""
        return {"speed": speed_of(self.samples), "probe_s": sum(self.samples),
                "samples": len(self.samples)}
