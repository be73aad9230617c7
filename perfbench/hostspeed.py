"""The host's speed, sampled while a child runs the CLI.

A shared host runs the same code up to 1.7x slower, in stretches from
milliseconds to minutes, and no statistic over one run removes the slow
minutes.  So while cli.main runs, SIGALRM starts a fixed probe, about 0.7 ms
of small numpy calls and interpreter work, every 50 ms.  The mean probe time
measures how fast the host ran this child, and the timed metrics are scaled
by NOMINAL_PROBE_S over it.  The probe's own time is left out of every timing
through `clock`, which runs on perf_counter minus the time spent probing.
The scaling is partial: chain-stiff's time moved about 1.4 times as much
as the probe's (in log terms), so on a slow stretch it still reads slower.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# The probe time on a host of reference speed: about its median on the 2-vCPU
# Xeon VM the benchmark was built on.  Scaled timings read as seconds there.
NOMINAL_PROBE_S = 0.0007


class Probe:
    def __init__(self):
        self._small = np.random.default_rng(20240611).standard_normal(256)
        self.times = []
        self.total_s = 0.0
        self._sample()                       # warm-up, not kept
        self.times.clear()
        self.total_s = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.total_s

    def _sample(self, *_):
        """Masked updates of a small array, as the step kernels make on each
        halving-level group, then interpreter work.  Of the probes tried,
        this one tracked the slowdowns of chain-tails and chain-stiff best
        (correlation 0.97 over 80 repetitions of each)."""
        t0 = time.perf_counter()
        a = self._small
        for _ in range(20):
            mask = np.abs(a) > 0.5
            sub = a[mask]
            a = a.copy()
            a[mask] = sub * 0.999 + 0.001 * sub ** 3
            a = np.maximum(a, -3.0)
        acc, seen = 0, {}
        for j in range(1500):
            acc += j * j
            seen[j & 31] = acc
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total_s += dt

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def mean_s(self) -> float:
        return sum(self.times) / len(self.times)
