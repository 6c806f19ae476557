"""Machine-speed samples, taken while a measured process runs.

The reference machine is a shared VM whose speed switches between modes
about 40% apart, for stretches of seconds to minutes, so a raw time says as
much about the neighbours as about the program.  ``Sampler`` interrupts the
process every ``PERIOD_S`` seconds (SIGALRM; Python runs the handler in the
main thread between bytecodes) and times two fixed loops that do not touch
diagsynth: a pure-Python one and a numpy one.  The neighbours slow the two
kinds of code by different amounts, so each workload names the loop that
matches where its time goes (``workloads.SPEED_LOOP``).

``factor()`` turns raw seconds into seconds at reference speed: the mean,
over the samples of a stretch, of ``REF_S / loop time``.  The samples are
evenly spaced in wall time, so this is the stretch's average speed
relative to the reference.  A change to diagsynth cannot move the factor,
only the raw time it multiplies.  ``spent_s()`` is the time the samples
themselves took, which every measured time leaves out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.2
READY_SAMPLES = 4  # samples taken at the end of set-up
LOOP_ITERS = 10000


def python_loop() -> float:
    """One calibration loop: integer arithmetic, a dict and a list, the
    mix of the library's pure-Python kernels.  Returns its duration."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = []
    s = 0
    for i in range(LOOP_ITERS):
        s = (s * 31 + i) & 0xFFFFF
        table[s & 1023] = i
        if i & 7 == 0:
            acc.append(s ^ table.get(i & 1023, 0))
    return time.perf_counter() - t0


_WORDS = np.arange(1 << 16, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def numpy_loop() -> float:
    """XOR, popcount and bincount over 64 Ki words, as the n <= 64
    weight kernels do.  Returns its duration."""
    t0 = time.perf_counter()
    for shift in range(4):
        np.bincount(np.bitwise_count(_WORDS ^ np.uint64(shift)), minlength=65)
    return time.perf_counter() - t0


LOOPS = {"python": python_loop, "numpy": numpy_loop}
# Each loop's time at reference speed.  They set the scale only: on the
# reference machine (2-vCPU "Intel(R) Xeon(R) Processor" KVM guest, Python
# 3.11.7, numpy 2.4.6) the loops take about 1.8 and 0.7 ms in its fast mode.
REF_S = {"python": 0.002, "numpy": 0.0008}


class Sampler:
    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in LOOPS}
        self._spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        for name, loop in LOOPS.items():
            self.samples[name].append(loop())
        self._spent += time.perf_counter() - t0

    def start(self) -> None:
        """Take one sample, which also warms the loops, and start the timer."""
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def burst(self, k: int) -> None:
        for _ in range(k):
            self._sample()

    def spent_s(self) -> float:
        return self._spent

    def count(self) -> int:
        return len(self.samples["python"])

    def factor(self, name: str, first: int) -> float:
        """Reference seconds per raw second over the samples from ``first`` on."""
        window = self.samples[name][first:]
        return sum(REF_S[name] / c for c in window) / len(window)
