"""Timing at a fixed reference speed, for a host whose speed drifts.

On a shared host a pure-Python loop runs about 1.7x slower for stretches
of a few seconds at a time while other tenants load the core, and steal
time stays near 0, so the process keeps the CPU but runs slower on it.
Over a 30-second run this moves raw wall time by more than any useful
bound.  So every timed interval is also expressed at a fixed reference
speed: a Probe times reference_loop() when the interval starts, every
PERIOD_S seconds while it runs (from a SIGALRM handler), and when it
ends.  The interval's time at reference speed is its measured time, less
the probe's own time inside it, times the mean of REFERENCE_S / sample:
each sample stands for an equal share of the interval.

A process forked during an interval, such as a worker of the solver's
pool, samples its own core the same way and sends the samples back
through a pipe.  While such workers run, the parent mostly waits, and its
samples then time a core that a worker also wants; so when workers sent
samples, the parent's samples from inside the interval are left out and
only its samples at the two ends are kept.

REFERENCE_S is the loop's time on an undisturbed core of the 2-vCPU
Intel Xeon host the bounds were set on (Python 3.11).  It fixes the scale
only, so the scaled figures read as seconds on that host at its fastest.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
import time

REFERENCE_S = 0.00021
PERIOD_S = 0.02
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def reference_loop() -> int:
    """A fixed lattice walk with tuple keys in a dict, like wcfold's inner loops."""
    seen = {}
    x = y = 0
    for i in range(600):
        dx, dy = _STEPS[(i * 7 + (i >> 3)) & 3]
        x, y = x + dx, y + dy
        seen[(x, y)] = seen.get((x, y), 0) + 1
    return sum(1 for (a, b), n in seen.items() if (a + b) & 1 and n > 1)


class Probe:
    """Times one interval at a time: `with probe:` then read .measured
    (seconds, probe excluded), .scale and .seconds (= measured * scale).
    Keeps every sample in .samples for the run's mean slowdown."""

    def __init__(self):
        self.samples: list[float] = []
        self.measured = self.scale = self.seconds = 0.0
        self._active = False
        self._from_workers, self._to_parent = os.pipe()
        os.set_blocking(self._from_workers, False)
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        if not self._active:
            return
        os.set_blocking(self._to_parent, False)
        signal.signal(signal.SIGALRM, self._child_tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _child_tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_loop()
        try:
            os.write(self._to_parent, struct.pack("d", time.perf_counter() - t0))
        except BlockingIOError:  # the parent reads after the interval; drop the rest
            pass

    def _worker_samples(self) -> list[float]:
        data = b""
        while True:
            try:
                chunk = os.read(self._from_workers, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        return [s for (s,) in struct.iter_unpack("d", data)]

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        loop_s = time.perf_counter() - t0
        self._taken.append(loop_s)
        return loop_s

    def _tick(self, signum, frame) -> None:
        self._inside += self._sample()

    def __enter__(self) -> Probe:
        self._taken: list[float] = []
        self._inside = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._active = True
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.measured = time.perf_counter() - self._start - self._inside
        self._active = False
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        workers = self._worker_samples()
        if workers:
            self._taken = [self._taken[0], self._taken[-1]] + workers
        self.scale = statistics.fmean(REFERENCE_S / s for s in self._taken)
        self.seconds = self.measured * self.scale
        self.samples += self._taken

    def slowdown(self) -> float:
        """The mean sample over REFERENCE_S, over every interval so far."""
        return statistics.fmean(self.samples) / REFERENCE_S if self.samples else 1.0
