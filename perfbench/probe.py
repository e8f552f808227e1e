"""Host-speed probe: wall times rescaled to one reference machine speed.

The shared virtual machines this benchmark runs on change speed by tens of
per cent within seconds and for minutes at a time (a fixed loop's time
swings 0.7x-1.5x; CPU time moves with wall time, so it is no escape).  Raw
wall times of the same code then spread as widely between runs.  The probe
measures that speed where the program runs: a ``SIGPROF`` interval timer
interrupts the process every ``INTERVAL_S`` of CPU time and times a fixed
kernel of interpreted and small-array numpy work, the mix the program
itself spends its time on.  A wall time measured over a window is then
rescaled by ``REFERENCE_S / mean kernel time in that window``: seconds on a
machine where the kernel takes ``REFERENCE_S``.

On ``turbine_low`` the kernel time follows the step time from step to step
with correlation ~0.98, and rescaling cut the quartile spread of one run's
steps from 0.28 to 0.04 of the median.  The kernel touches nothing of the
program's, so a program change moves rescaled times exactly as it moves
raw ones; the kernel's ~150 us every 20 ms adds ~1% to every raw wall.
"""

from __future__ import annotations

import os
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

#: CPU seconds between two kernel runs.
INTERVAL_S = 0.02
#: Kernel time that defines the reference speed (about this VM at its
#: faster moments).
REFERENCE_S = 150e-6
#: Windows with fewer kernel runs borrow the mean of the whole run.
MIN_SAMPLES = 10

_BUF = np.arange(2048, dtype=float)
_OUT = np.empty_like(_BUF)


def _kernel() -> float:
    """One fixed unit of interpreted and numpy work; its wall seconds."""
    t0 = perf_counter()
    s = 0.0
    for i in range(400):
        s += i * 0.5
    for _ in range(20):
        np.multiply(_BUF, 1.0001, out=_OUT)
        _OUT.sum()
    return perf_counter() - t0


class SpeedProbe:
    """Kernel timings of this process, taken on ``SIGPROF``.

    A forked child inherits the object but not the timer: :meth:`start`
    in the child drops the parent's samples and starts its own timer.
    """

    def __init__(self) -> None:
        self.samples = array("d")
        self.pid = 0

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(_kernel())

    def start(self) -> None:
        if self.pid == os.getpid():
            return
        self.samples = array("d")
        self.pid = os.getpid()
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.pid = 0

    def mark(self) -> int:
        """The start of a window: pass it to :meth:`factor`."""
        return len(self.samples)

    def factor(self, mark: int, end: int | None = None) -> float:
        """Reference over measured speed for the window ``mark:end``."""
        window = self.samples[mark:end]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        if not window:
            return 1.0
        return REFERENCE_S / statistics.fmean(window)
