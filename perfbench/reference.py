"""Host-speed reference for steadier timings on a shared machine.

On a small shared VM the same code runs up to twice as slow for stretches of
seconds to minutes while other tenants load the host.  The benchmark times a
fixed reference loop (plain Python plus small numpy ops, the mix segkit
spends its time in, and no segkit code) in between its timed segkit calls,
in the same process, and scales every end-to-end timing of the run by
``NOMINAL_MS / mean reference time``.  At nominal host speed the scale is 1
and a timing reads as measured; the raw timings and the scale are printed
alongside.
"""

import statistics
import time

import numpy as np

NOMINAL_MS = 3.2  # reference loop time on an unloaded 2-vCPU Xeon VM


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((144, 64)).astype(np.float32)
        self._w = rng.standard_normal((64, 16)).astype(np.float32)
        self.times_ms = []

    def _loop(self):
        table = {}
        acc = 0.0
        for i in range(40):
            z = self._x @ self._w
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            table[i] = (p, [i] * 8)
            acc += float(p[0, 0])
        for i in range(3000):
            table[i % 50] = (i, str(i))
        return acc

    def tick(self, n=1):
        """Time n reference loops."""
        for _ in range(n):
            t = time.perf_counter()
            self._loop()
            self.times_ms.append(1e3 * (time.perf_counter() - t))

    def scale(self):
        """Factor that maps this run's timings to nominal host speed."""
        return NOMINAL_MS / statistics.fmean(self.times_ms)
