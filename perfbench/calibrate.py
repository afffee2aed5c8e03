"""Machine speed, measured next to the work, for times at a reference speed.

The host this benchmark runs on is shared, and its speed changes by up to
half for tens of seconds at a time, so raw times of one piece of code differ
that much from run to run. Fixed reference kernels, timed between ops, move
with it. There are two, because interpreted Python and numpy/scipy do not
always slow down together:

- ``exact``: fraction-free integer elimination and Fraction arithmetic, the
  work of twotree's exact layers;
- ``float``: a small dense solve and a few conjugate-gradient iterations, the
  work of its float solver.

Both are written here, so that no change to the package changes them.

An op's time at reference speed is its raw time times the kernel's reference
time (in ``KERNELS``) over the median time of that kernel within ``WINDOW_S``
of the op: the time the op would take on a machine where the kernel takes its
reference time. Each op names the kernel whose kind of work it mostly does.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import cg

# Between ops, one kernel sample for each SAMPLE_EVERY_S since the last,
# and at most MAX_SAMPLES_AT_ONCE: an op that ran long gets several samples
# on each side, so that one slow sample does not set its speed.
SAMPLE_EVERY_S = 0.1
MAX_SAMPLES_AT_ONCE = 10
# Samples this close to an op, before its start or after its end, set its speed.
WINDOW_S = 1.0

_rng = random.Random(2)
_N = 28
_MATRIX = [[60 if r == c else _rng.randrange(-9, 10) for c in range(_N)] for r in range(_N)]

_np_rng = np.random.default_rng(2)
_DENSE = _np_rng.standard_normal((120, 120)) + 120 * np.eye(120)
_DENSE_RHS = _np_rng.standard_normal(120)
_SPARSE = diags([-np.ones(4999), 2.5 * np.ones(5000), -np.ones(4999)], [-1, 0, 1], format="csr")
_SPARSE_RHS = np.ones(5000)


def _exact_kernel():
    """Fraction-free elimination of a fixed diagonally dominant matrix, then
    a chain of Fraction sums and products."""
    a = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_N - 1):
        piv, rowk = a[k][k], a[k]
        for r in range(k + 1, _N):
            rowr = a[r]
            mult = rowr[k]
            for c in range(k + 1, _N):
                rowr[c] = (rowr[c] * piv - mult * rowk[c]) // prev
        prev = piv
    total, prod = Fraction(0), Fraction(1)
    for k in range(1, 160):
        total += Fraction(k % 7 + 1, k + 2)
        prod = prod * Fraction(k + 1, k + 2) + total
    return a[-1][-1], prod


def _float_kernel():
    """A 120x120 dense solve and 15 CG iterations on a 5000-vertex path
    Laplacian (the tolerance is never met, so the count is fixed)."""
    np.linalg.solve(_DENSE, _DENSE_RHS)
    return cg(_SPARSE, _SPARSE_RHS, maxiter=15, rtol=1e-30)


# Kernel -> (function, what one run takes on the reference machine). The
# reference times are about the medians seen on a 2-vCPU Xeon VM with
# Python 3.11.7 over the runs that set the baseline.
KERNELS = {
    "exact": (_exact_kernel, 0.003),
    "float": (_float_kernel, 0.0011),
}


class Speed:
    """Kernel samples of one stretch of time, and the speeds they give."""

    def __init__(self):
        self.at = []  # perf_counter at each sample
        self.seconds = {kind: [] for kind in KERNELS}
        self._last = -float("inf")

    def sample(self):
        """Time each kernel once. The collector is off meanwhile, so that a
        collection of the program's garbage is not charged to a kernel."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.at.append(time.perf_counter())
            for kind, (kernel, _) in KERNELS.items():
                t0 = time.perf_counter()
                kernel()
                self.seconds[kind].append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        self._last = time.perf_counter()

    def catch_up(self, minimum=0):
        """Take the samples due since the last one (see SAMPLE_EVERY_S), and
        at least ``minimum``."""
        due = min((time.perf_counter() - self._last) / SAMPLE_EVERY_S, MAX_SAMPLES_AT_ONCE)
        for _ in range(max(minimum, int(due))):
            self.sample()

    def factor(self, kind, start=-float("inf"), end=float("inf")):
        """The kernel's reference time over its median time near [start, end]
        (over all samples by default): multiply a raw time by it."""
        near = [s for t, s in zip(self.at, self.seconds[kind])
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise ValueError("no kernel sample near the interval")
        return KERNELS[kind][1] / statistics.median(near)
