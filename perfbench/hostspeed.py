"""Host speed sampling: a fixed probe computation interleaved with the program.

The host of baseline.md (2 vCPUs) is a share of a machine whose processor
speed wanders by ±20% and more, over seconds as well as minutes, with CPU
time moving with wall time (see baseline.md).  Each vCPU wanders on its
own, so a probe run beside the program, or only before and after a long
run, does not see what the program saw.

``Sampler`` therefore runs the probe inside the worker, on the program's own
thread: a ``SIGALRM`` timer interrupts the program every ``INTERVAL_S`` and
the handler runs ``tick()``.  The worker reports, for setup and for the
timed part, how many ticks ran and how long they took.  ``run.py`` subtracts
the ticks' time from the part's wall time and multiplies the rest by
``REFERENCE_S`` over the mean tick time: the time the part would have taken
at the reference speed.  The probe uses no clockmux code, so a change to the
program moves the scaled times as much as the wall times, while a change of
the host's speed during the run moves both the program and the ticks.

The probe mixes the kinds of work clockmux does: a Python loop, numpy calls
on small arrays with a fresh generator each (like the per-encryption Monte
Carlo and the per-trace passes), and whole-array numpy on long arrays (like
waveforms and trace matrices).  No part uses BLAS.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: About the median ``tick()`` time inside workers on the host of baseline.md
#: (2-vCPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4.6).  It only sets the scale:
#: scaled times read as seconds on that host at its median speed.
REFERENCE_S = 0.028
#: Time between ticks; a tick takes about 5% of it.
INTERVAL_S = 0.5


def _python_loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(40000):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc += (k * 3) // 7
    return acc


def _small_arrays() -> float:
    acc = 0.0
    for ss in np.random.SeedSequence(0).spawn(250):
        rng = np.random.Generator(np.random.PCG64(ss))
        x = np.cumsum(rng.random(24))
        d = np.diff(x)
        acc += float(x[10]) + int((d < 0.5).sum())
    return acc


def _long_arrays() -> float:
    rng = np.random.default_rng(0)
    y = rng.standard_normal(1 << 17)
    spectrum = np.abs(np.fft.rfft(y))
    return float(np.sort(y)[100] + np.cumsum(y)[-1] + spectrum.max())


def tick() -> float:
    """Run the probe computation once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _python_loop()
    _small_arrays()
    _long_arrays()
    return time.perf_counter() - t0


class Sampler:
    """Runs ``tick()`` every ``INTERVAL_S`` on the main thread while started.

    ``clock()`` is ``time.perf_counter`` minus the time spent in ticks, so
    spans timed with it leave the probe out.
    """

    def __init__(self):
        self.ticks: list[float] = []
        self.tick_total_s = 0.0
        self._previous = None
        tick()  # warm-up: the first run of the probe is slower than the rest

    def _handler(self, signum, frame):
        dt = tick()
        self.ticks.append(dt)
        self.tick_total_s += dt

    def start(self) -> None:
        """Tick now, then every ``INTERVAL_S`` until ``stop()``."""
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._handler(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop ticking; return the tick times since ``start()`` and clear them."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        ticks, self.ticks = self.ticks, []
        return ticks

    def clock(self) -> float:
        return time.perf_counter() - self.tick_total_s


def scaled(wall_s: float, ticks: list[float]) -> tuple[float, float]:
    """(program wall time, scale) of a part that ran ``ticks`` within ``wall_s``.

    The program time is ``wall_s`` less the ticks; multiplied by the scale it
    is the time at the reference speed.
    """
    return wall_s - sum(ticks), REFERENCE_S * len(ticks) / sum(ticks)

