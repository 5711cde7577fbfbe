"""Machine-speed calibration: a fixed kernel timed in between the ops.

The benchmark runs on a shared machine whose speed drifts by a third, over
anything from a fraction of a second to minutes, as other tenants come and
go: far more than the changes it has to show.  So the worker times this
kernel, which never changes, in between the ops (about 5% of the op time,
spread over the run), and divides every op time by a factor: the median
kernel time within ``WINDOW_S`` of the op, over ``REFERENCE_S``.  The
times it reports are then seconds on a machine on which one kernel sample
takes ``REFERENCE_S``.

The kernel mixes interpreted Python with small numpy array work, as the
package does; it calls nothing in ``axiomlab`` and allocates no arrays, so
no change to the package moves it.
"""

import time

import numpy as np

REFERENCE_S = 0.001  # near the kernel's median on the 2-vCPU Xeon of baseline.json
SHARE = 0.05  # kernel time per op time
WINDOW_S = 0.15  # kernel samples this close to an op scale its time

_POINTS = np.random.default_rng(0).normal(size=(200, 3))
# Preallocated: an allocation this size would be served by mmap or by the
# heap depending on what the process freed before, so its cost would
# follow the workload's memory use rather than the machine's speed.
_DIFF = np.zeros((200, 200, 3))


def _kernel():
    s = 0
    for i in range(3000):
        s += i * i % 7
    np.subtract(_POINTS[:, None, :], _POINTS[None, :, :], out=_DIFF)
    np.multiply(_DIFF, _DIFF, out=_DIFF)
    return s + float(_DIFF.sum())


def sample():
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Sampler:
    """Keeps kernel time at ``SHARE`` of the op time seen so far."""

    def __init__(self):
        self.starts = []  # perf_counter() at each sample's start
        self.samples = []
        self._owed = 0.0

    def after_op(self, op_s):
        self._owed += SHARE * op_s
        while self._owed > 0.0:
            self.starts.append(time.perf_counter())
            s = sample()
            self.samples.append(s)
            self._owed -= s

    def factor(self):
        """How much slower than the reference the machine ran, as the
        median kernel time over ``REFERENCE_S``."""
        return float(np.median(self.samples)) / REFERENCE_S

    def factors(self, spans):
        """The factor for each (start, end) of an op: from the samples
        within ``WINDOW_S`` of it, or from all samples if none is."""
        starts, samples = np.asarray(self.starts), np.asarray(self.samples)
        out = []
        for t0, t1 in spans:
            lo, hi = np.searchsorted(starts, [t0 - WINDOW_S, t1 + WINDOW_S])
            out.append(np.median(samples[lo:hi] if hi > lo else samples))
        return np.asarray(out) / REFERENCE_S


def factor_now(seconds=0.1):
    """The calibration factor from kernel samples over about ``seconds``."""
    sampler = Sampler()
    sampler.after_op(seconds / SHARE)
    return sampler.factor()
