"""Operation times corrected for the speed of a shared host.

On a host shared with other tenants, the same code runs up to half again as
slow for minutes at a time, so raw times of runs made minutes apart differ
by more than any change worth measuring.  A HostClock measures the host's
speed during the operation itself: every SAMPLE_PERIOD_S of wall time, a
SIGALRM handler times one step of the benchmark's own numpy Strang reference
(`checks.strang_step`, which shares no code with acsplit) on a fixed
128 x 128 grid of 2-vectors.  The samples come at a fixed period, so each
stands for an equal share of the operation's time, and that share ran at a
speed the sample's reciprocal measures.  The operation's time, without the
samples, is converted share by share to a host on which the reference step
takes REFERENCE_STEP_S:

    seconds = (wall - sum(samples)) * REFERENCE_STEP_S * mean(1 / samples)

A change to acsplit moves the operation's time and not the samples, so it
shows in full; a slow phase of the host moves both, and mostly cancels.
Work that runs in another process, such as a set-up probe, is converted in the
same way with samples taken right before and after it (`reference_samples`).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

import checks

SAMPLE_PERIOD_S = 0.1
# about the reference step's median time inside the workloads' operations on
# the reference machine (2-vCPU KVM guest, Xeon family 6 model 143, numpy 2.4.6),
# where it read 4.8 to 8.7 ms as the host's speed changed
REFERENCE_STEP_S = 0.006
REFERENCE_FIELD = np.random.default_rng(0).standard_normal((128, 128, 2))


def timed_reference_step() -> float:
    t0 = time.perf_counter()
    checks.strang_step(REFERENCE_FIELD, 0.01, "vector", 2)
    return time.perf_counter() - t0


def reference_samples(n: int) -> list[float]:
    """The times of n reference steps in a row."""
    return [timed_reference_step() for _ in range(n)]


def on_reference_host(seconds: float, samples: list[float]) -> float:
    """`seconds` of work done while the reference step took `samples`,
    converted to a host on which it takes REFERENCE_STEP_S."""
    return seconds * REFERENCE_STEP_S * statistics.fmean(1.0 / s for s in samples)


class HostClock:
    """Times calls in seconds of the reference host; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_reference_step())

    def time(self, fn):
        """Call fn() with the sampler running.  Returns its result, its wall
        seconds without the samples, and those seconds scaled to the
        reference host."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        own = wall - sum(self.samples)
        return result, own, on_reference_host(own, self.samples)
