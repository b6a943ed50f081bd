"""Host-speed calibration sampled while the benchmark works.

The benchmark runs on shared machines whose CPU speed drifts by tens of
percent from one second to the next, which swamps the program's own speed in
a wall-clock rate.  ``HostSpeed`` samples that drift: an interval timer
interrupts the process every ``INTERVAL_S`` seconds, and the signal handler
times one fixed pure-Python loop (``calibration_loop``), which allocates,
indexes dicts and lists and does integer arithmetic much as pmcut does.  The
mean sample over a stretch of work is proportional to how slow the host ran
during it, so

    scaled seconds = (wall seconds - handler seconds) * REFERENCE_S / mean sample

is the time the same work would take on a host where one sample takes
``REFERENCE_S``.  The handler's own time is taken out of the work it
interrupted.  The loop does not touch pmcut, so a faster pmcut shows as fewer
scaled seconds.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
LOOP_ROUNDS = 2000
# About one sample on a quiet 2-core x86 Xeon VM with Python 3.11.  It only
# sets the scale of the reported times and rates: seconds at that speed.
REFERENCE_S = 0.00025


def calibration_loop() -> int:
    d: dict[int, int] = {}
    acc: list[int] = []
    for i in range(LOOP_ROUNDS):
        d[i & 255] = i
        acc.append(d[i & 127] ^ i)
    return len(acc)


class HostSpeed:
    """Running count and sum of calibration samples while ``running``."""

    def __init__(self):
        self.count = 0
        self.sample_s = 0.0
        self._saved = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.sample_s += time.perf_counter() - t0
        self.count += 1

    def __enter__(self) -> "HostSpeed":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> tuple[int, float]:
        return self.count, self.sample_s

    def since(self, mark: tuple[int, float]) -> tuple[int, float]:
        """Samples taken and seconds spent sampling since ``mark``."""
        return self.count - mark[0], self.sample_s - mark[1]


def scaled(seconds: float, samples: int, sample_s: float, fallback_sample_s: float) -> float:
    """``seconds`` at the reference speed, given the samples taken meanwhile;
    with none taken, ``fallback_sample_s`` stands for their mean."""
    mean = sample_s / samples if samples else fallback_sample_s
    return seconds * REFERENCE_S / mean
