"""Host-speed-calibrated timing for the fedpecd benchmark.

On a shared host the same single-threaded code runs up to twice as slow
for a minute or more at a time, with no steal time accounted: the vCPU is
running, only slower.  Medians within a run cannot remove a slowdown that
lasts the whole run.  So the benchmark measures the host's speed while it
runs, interleaved with the program at fine grain.

``HostClock.running()`` arms a SIGALRM interval timer.  Every
``INTERVAL_S`` seconds the handler runs a short fixed probe kernel (stacked
3x3 eigendecompositions, outer-product updates and dict bookkeeping: the
mix the design solver runs) and records how long it took.  An interval's
``raw`` time is its wall-clock time minus the time spent in the handler.
Its ``calibrated`` time is ``raw * REFERENCE_PROBE_S / p``, where ``p`` is
the mean probe time over the samples taken during the interval and the
last one before it.  Calibrated seconds are seconds on a host where the
probe takes ``REFERENCE_PROBE_S``, the probe's time on an uncontended
2-vCPU host of the kind the benchmark was written on; they cancel the
host's drift, not the program's speed.

The probe is part of the benchmark, not the program, so a change to the
program never changes it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from numpy.linalg import eigh  # bound here: the tracer patches np.linalg.eigh

INTERVAL_S = 0.2
PROBE_STEPS = 100
REFERENCE_PROBE_S = 0.006

_rng = np.random.default_rng(0)
_DIRECTIONS = [_rng.standard_normal(3) for _ in range(8)]


def probe_kernel(steps: int = PROBE_STEPS) -> float:
    grams = {a: np.eye(3) for a in range(len(_DIRECTIONS))}
    weights: dict[tuple[int, int], float] = {}
    total = 0.0
    for k in range(steps):
        arm = k % len(_DIRECTIONS)
        e = _DIRECTIONS[arm]
        grams[arm] += 0.01 * np.outer(e, e)
        w, u = eigh(np.stack(list(grams.values())))
        coords = u[arm].T @ e
        keep = w[arm] > 1e-9
        total += float(np.sum(coords[keep] ** 2 / w[arm][keep]))
        weights[(arm, k % 5)] = total
        total += float(np.argmax(w[:, 0]))
    return total


class HostClock:
    """Interval timer whose readings are corrected for the host's speed."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0

    def _probe(self, *_):
        start = time.perf_counter()
        probe_kernel()
        probe = time.perf_counter() - start
        self.samples.append(probe)
        self.handler_s += time.perf_counter() - start

    @contextmanager
    def running(self):
        """Sample the host's speed every INTERVAL_S seconds while inside."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        probe_kernel()  # warm-up, not recorded
        self._probe()  # every interval has a sample before it
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.handler_s, len(self.samples)

    def since(self, mark) -> tuple[float, float]:
        """(raw, calibrated) seconds since ``mark``; probe time excluded."""
        end = time.perf_counter()
        start, handler_s, n_samples = mark
        raw = end - start - (self.handler_s - handler_s)
        probes = self.samples[max(n_samples - 1, 0):]
        if not probes:
            return raw, raw
        return raw, raw * REFERENCE_PROBE_S / statistics.fmean(probes)
