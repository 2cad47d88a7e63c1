"""How fast the CPU runs right now, measured without the program.

The host this benchmark was defined on runs a vCPU at speeds that drift by
up to half within seconds and stay slow or fast for minutes, and the slowdown
hits all kinds of work, though not all equally. A short fixed probe of the
same kinds of work before and after each measured interval tracks the speed
the interval ran at, and the benchmark reports its times scaled to the speed
at which the probe takes REFERENCE_S.
"""

import os
import time

import numpy as np

# Probe time on an undisturbed vCPU of the machine the benchmark was defined
# on (Xeon, KVM, 2 vCPUs). It only sets the scale of the reported numbers.
REFERENCE_S = 0.020


class SpeedProbe:
    """Calling it times a fixed mix of the kinds of work the ops do:
    interpreter loops, BLAS, sorting, streaming through fresh memory,
    scatter-add, fancy-index gather and text-to-float parsing."""

    def __init__(self):
        # Small arrays: the probe must not raise the process's peak memory
        # above what the ops themselves reach, even for blob_train.
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(200, 200))
        self._x = rng.normal(size=200_000)
        self._rows = rng.integers(0, 20_000, size=100_000)
        self._weights = rng.random(100_000)
        self._values = rng.normal(size=(10_000, 16))
        self._gather = rng.integers(0, 10_000, size=(5_000, 4))
        self._bary = rng.random((5_000, 4))
        self._text = " ".join("%.17g" % v for v in rng.normal(size=10_000))
        self.samples = []
        self()
        self.samples.clear()  # the first call warms caches and code paths

    def __call__(self):
        start = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += i * i
        for _ in range(10):
            self._a @ self._a
        self._x.copy().sort()
        for _ in range(6):
            np.ones(500_000).sum()
        for _ in range(8):
            np.bincount(self._rows, weights=self._weights, minlength=20_000)
        for _ in range(4):
            np.einsum("mk,mkc->mc", self._bary, self._values[self._gather])
        np.array(self._text.split(), dtype=np.float64)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]


def pin_to_current_cpu():
    """Keep this process (and the children it starts) on the CPU it runs on,
    so that the probe and the work it scales share one vCPU."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu
