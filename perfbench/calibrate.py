"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared VMs whose speed drifts by tens of percent over
minutes: on the 2-core VM the baseline was taken on, trial-heavy read 323 to
628 raw ops/s over six runs in ten minutes.  Each end-to-end timing is
therefore taken between two runs of a fixed kernel and scaled to the
kernel's reference speed: a time t taken while the kernel ran at k runs/s is
reported as t * k / reference.

The kernels are frozen benchmark code, so no change to `cosetcode` moves
them.  Each one is a miniature of the work that dominates a workload, since
contention slows interpreter-bound and array-bound work by different
amounts, and work on two threads differently from work on one:

* `interpreter`: a Python-loop Gauss-Jordan elimination over GF(2) on a
  small numpy array and a fancy-indexed score over an enumerated coset, as in
  `solve_coset` and the i.i.d. decoders;
* `arrays`: indicator products and reductions over 512 x 512 score
  matrices, as in the product-coset decoder.

A workload that runs trials on several threads runs its kernel on as many.
"""

from __future__ import annotations

import gc
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# kernel runs per second on the baseline VM (2 cores, Python 3.11, numpy 2.4),
# by (kernel, threads)
REFERENCE_PER_S = {("interpreter", 1): 400.0, ("interpreter", 2): 280.0,
                   ("arrays", 1): 330.0}
READS = {"interpreter": 16, "arrays": 12}  # kernel runs per speed reading


class Calibrator:
    """Measures the machine's current speed relative to the reference."""

    def __init__(self, kernel: str, threads: int = 1):
        rng = np.random.default_rng(0)
        self._kernel = getattr(self, f"_{kernel}")
        self._reference = REFERENCE_PER_S[kernel, threads]
        self._reads = READS[kernel]
        self._threads = threads
        self._aug = rng.integers(0, 2, size=(12, 17))
        self._elems = rng.integers(0, 2, size=(256, 16))
        self._v = rng.integers(0, 2, size=16)
        self._table = np.log2(np.array([[0.9, 0.1], [0.2, 0.8]]))
        self._ex = rng.integers(0, 2, size=(512, 16))
        self._ey = rng.integers(0, 2, size=(512, 16))

    def _interpreter(self):
        for _ in range(6):
            aug = self._aug.copy()
            rows, r = aug.shape[0], 0
            for c in range(aug.shape[1] - 1):
                piv = next((i for i in range(r, rows) if aug[i, c] != 0), None)
                if piv is None:
                    continue
                if piv != r:
                    aug[[r, piv]] = aug[[piv, r]]
                for i in range(rows):
                    if i != r and aug[i, c] != 0:
                        aug[i] = (aug[i] - aug[i, c] * aug[r]) % 2
                r += 1
                if r == rows:
                    break
            self._table[self._v[None, :], self._elems].sum(axis=1).argmax()

    def _arrays(self):
        ix = (self._ex == 0).astype(float)
        iy = (self._ey == 0).astype(float).T
        s = ix @ (0.7 * iy)
        np.add(s, ix.sum(axis=1)[:, None], out=s)
        np.add(s, iy.sum(axis=0)[None, :], out=s)
        np.nonzero(s == s.max())

    def speed(self) -> float:
        """Current kernel speed divided by the reference speed.  Garbage left
        by the measured work is collected first, untimed."""
        gc.collect()
        t0 = time.perf_counter()
        if self._threads == 1:
            for _ in range(self._reads):
                self._kernel()
        else:
            with ThreadPoolExecutor(max_workers=self._threads) as pool:
                for f in [pool.submit(self._kernel) for _ in range(self._reads)]:
                    f.result()
        return self._reads / (time.perf_counter() - t0) / self._reference

    def around(self, fn):
        """Run `fn` between two speed readings; returns (fn(), mean speed)."""
        before = self.speed()
        out = fn()
        return out, (before + self.speed()) / 2
