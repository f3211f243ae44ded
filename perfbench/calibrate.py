"""Machine-speed calibration for the timed runs.

The test machine is shared: the same closed loop on the same input takes
anywhere from 1x to 2x its quiet-machine time, in spells lasting seconds to
minutes, and process CPU time swells with wall time, so the slowdown is
contention for the core rather than descheduling. A fixed reference kernel
(small dense QR factorizations plus a pure-Python loop, and no lakempc code)
is therefore run from a SIGALRM handler every SAMPLE_EVERY_S seconds of wall
time, wherever the workload happens to be. Each stretch of workload between
two kernel runs is scaled by KERNEL_REF_S over the mean of the two kernel
times around it, which gives its duration at the reference machine speed.
Kernel time itself is excluded from every interval. Set-up time is scaled by
kernel runs made right after it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median kernel time on an idle 2-vCPU Intel Xeon (Haswell-class) sandbox,
# numpy 2.4 with scipy-openblas 0.3.31 on one thread.
KERNEL_REF_S = 3.2e-3
SAMPLE_EVERY_S = 0.25
_ROUNDS = 20
_MATRIX = np.random.default_rng(0).standard_normal((72, 72))


def kernel() -> None:
    for _ in range(_ROUNDS):
        np.linalg.qr(_MATRIX)
        x = 0.0
        for i in range(300):
            x += i * 0.5


def speed_factor(runs: int = 5) -> float:
    """KERNEL_REF_S over the median of a few kernel times, measured now."""
    kernel()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return KERNEL_REF_S / float(np.median(times))


class Calibrator:
    """Context manager that samples the kernel on a wall-clock timer."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        kernel()  # warm-up, untimed

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self) -> "Calibrator":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _stretches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start, raw length, speed factor) of each stretch between kernel runs."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        kernel_s = ends - starts
        factor = KERNEL_REF_S / (0.5 * (kernel_s[:-1] + kernel_s[1:]))
        return ends[:-1], starts[1:] - ends[:-1], factor

    def raw_and_calibrated(self) -> tuple[float, float]:
        """Total workload time, as measured and at reference speed."""
        _, length, factor = self._stretches()
        return float(length.sum()), float((length * factor).sum())

    def calibrate_intervals(self, t_start, seconds) -> tuple[np.ndarray, np.ndarray]:
        """Intervals without the kernel runs inside them: raw and at reference speed.

        The speed factor is that of the stretch in which an interval starts.
        """
        t_start, seconds = np.asarray(t_start), np.asarray(seconds)
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        inside = np.concatenate([[0.0], np.cumsum(ends - starts)])
        first = np.searchsorted(starts, t_start)
        last = np.searchsorted(ends, t_start + seconds, side="right")
        raw = seconds - (inside[np.maximum(last, first)] - inside[first])
        begin, _, factor = self._stretches()
        stretch = np.clip(np.searchsorted(begin, t_start, side="right") - 1, 0, factor.size - 1)
        return raw, raw * factor[stretch]
