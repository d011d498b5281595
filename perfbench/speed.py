"""Wall-clock timings calibrated against the host's current speed.

On a shared host the same work can take 1.6-2x longer for seconds at a
time while a neighbour competes for the core.  A ``SpeedSampler`` interrupts
this process every ``INTERVAL_S`` (SIGALRM, this process only) and times a
fixed kernel in the signal handler, i.e. between the program's own
bytecodes.  An interval measured with ``mark``/``since`` excludes the time
spent in the handler and is scaled by ``reference / kernel time`` during the
interval, so it reads as seconds on a host that runs the kernels in their
``REFERENCE_S``.  The kernels are fixed benchmark code, so they run at the
same speed on every commit.

A sample times two kernels and takes the geometric mean of their
durations.  ``interpreter_kernel`` is pure Python; ``numpy_kernel`` makes the
small-array numpy calls that dominate the environments and single-row policy
calls, which slow down more under contention than pure Python does.  With
both, evaluations and iterations alike are tracked to within a few percent.
A process that must not import numpy before the timed region (the cold
start probe) samples the interpreter kernel alone.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
# Kernel samples longer than this multiple of the interval's median are
# treated as interrupted and clipped, so one preemption cannot skew a mean.
CLIP = 2.0


def interpreter_kernel() -> float:
    acc = 0.0
    for k in range(400):
        acc += (k * 0.5) % 7.0
    return acc


def numpy_kernel() -> float:
    import numpy as np

    a, b = np.array([0.3, 0.4]), np.array([0.1, -0.2])
    acc = 0.0
    for _ in range(8):
        u = np.array([np.cos(acc), np.sin(acc)])
        rel = b - a
        acc += float(rel @ u) + float(np.linalg.norm(rel))
        acc += float(np.clip(acc, -1.0, 1.0))
    return acc


# Each kernel's duration on an idle 2.0 GHz Xeon vCPU (Python 3.11, numpy 2.4).
REFERENCE_S = {interpreter_kernel: 45e-6, numpy_kernel: 80e-6}


class SpeedSampler:
    """Context manager that samples the kernels while active."""

    def __init__(self, kernels=(interpreter_kernel, numpy_kernel)):
        self.kernels = kernels
        self.reference = statistics.geometric_mean([REFERENCE_S[k] for k in kernels])
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent inside the handler

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        durations = []
        for kernel in self.kernels:
            start = time.perf_counter()
            kernel()
            durations.append(time.perf_counter() - start)
        self.durations.append(statistics.geometric_mean(durations))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.durations)

    def since(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(raw, calibrated) seconds since ``mark``, handler time excluded."""
        t0, spent0, n0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        samples = self.durations[n0:] or self.durations[-1:]
        if not samples:
            return raw, raw
        ceiling = CLIP * statistics.median(samples)
        speed = statistics.fmean(min(d, ceiling) for d in samples)
        return raw, raw * self.reference / speed

