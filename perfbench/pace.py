"""Machine-speed calibration for the benchmark's time metrics.

The benchmark host is shared, and its speed drifts. On a 2-vCPU Intel Xeon
virtual machine, the same block of ``renormalize`` ops took
0.63 s to 1.2 s within 100 s, in phases tens of seconds long. A fixed
pure-Python loop timed between the blocks slowed with them: the
correlation was 0.88, and the per-block coefficient of variation fell from
0.21 to 0.095 once the loop's time was divided out.

So a run samples the machine's speed every ``CAL_PERIOD_S`` with a
*calibration slice*: a fixed loop of float arithmetic and calls that shares
no code with ``vacpol``, so a change to the library cannot speed up the
yardstick along with the ops.  The slices run from a ``SIGALRM``
handler, so they land inside long ops (a ``validate`` pass takes seconds)
as well as between short ones; the time they take is subtracted from the
op they interrupt.  While other threads run, a slice would time the
contended interpreter lock rather than the machine, so the handler defers
it to the next gap between ops.

Ops that spread their work over a thread pool (``vacpol profile``'s rows)
are paced with *pool slices* instead: the same loop split into
``CAL_CHUNKS`` chunks over a fresh thread pool, so that the slice also
meets the thread start-up and the interpreter-lock hand-offs between cores
that such an op meets.  Over 120 s of 10-row profile ops on the host above,
the coefficient of variation of 2 s window medians was 0.064 unscaled,
0.087 scaled by plain slices and 0.046 scaled by pool slices; ten
``validate`` runs scaled by pool slices spread 0.14, against 0.05 with
plain ones.  Pool slices are taken only between ops: from the handler, one
could land while the interrupted op holds the lock that
``concurrent.futures`` takes on every submit, and wait on it for ever.

Each op's time is multiplied by the nominal slice time over the mean time
of the ``CAL_NEAREST`` slices taken nearest to it, because a phase of the
host can start or end within a run; the time metrics so read as seconds
on a machine where one slice takes ``CAL_NOMINAL_S`` (one pool slice,
``POOL_NOMINAL_S``).  The unscaled figures are kept in the run record.
"""

import bisect
import inspect
import math
import signal
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

CAL_ITERS = 20_000
CAL_CHUNKS = 10
# seconds of one plain slice, and of one pool slice, on the nominal machine;
# a pool slice takes about 1.3 plain ones on the host above
CAL_NOMINAL_S = 0.005
POOL_NOMINAL_S = 0.0065
CAL_PERIOD_S = 0.1
CAL_NEAREST = 10


def _term(x):
    return math.exp(-x) * x**1.5 / (1.0 + x)


def _loop(iters):
    acc = 0.0
    for i in range(iters):
        acc += _term(0.5 + (i % 97) * 0.01)
    return acc


def calibration_slice():
    """Seconds that a fixed loop of float arithmetic and calls takes now."""
    t0 = time.perf_counter()
    _loop(CAL_ITERS)
    return time.perf_counter() - t0


def pool_slice():
    """Seconds that the same loop takes now, split into ``CAL_CHUNKS`` chunks
    over a fresh thread pool."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor() as pool:
        list(pool.map(_loop, [CAL_ITERS // CAL_CHUNKS] * CAL_CHUNKS))
    return time.perf_counter() - t0


def slice_source():
    """Source of ``calibration_slice``, for a fresh interpreter to paste in
    and run without importing this module; it needs ``math``, ``time`` and
    ``CAL_ITERS``."""
    return "".join(inspect.getsource(f) for f in (_term, _loop, calibration_slice))


class Pace:
    """Calibration slices taken on a timer while the ``with`` block runs.

    ``spent`` is the wall time the slices have taken so far; an op's own time
    is its wall time minus the growth of ``spent`` across it.  ``slices``
    holds the slice times and ``at`` the ``perf_counter`` reading at which
    each was taken.  ``pooled`` takes pool slices, between ops only."""

    def __init__(self, pooled):
        self.pooled = pooled
        self.slices = []
        self.at = []
        self.spent = 0.0
        self._previous = None
        self._due = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:  # a run shorter than one period
            self._take()

    def _sample(self, signum, frame):
        if self.pooled or threading.active_count() > 1:
            self._due = True
        else:
            self._take()

    def _take(self):
        t0 = time.perf_counter()
        self.slices.append(pool_slice() if self.pooled else calibration_slice())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0

    def between_ops(self):
        """Take a slice deferred by the handler, if one is due."""
        if self._due:
            self._due = False
            self._take()

    def factor(self, when=None):
        """Scale from this run's seconds to nominal-machine seconds: from the
        ``CAL_NEAREST`` slices nearest to the ``perf_counter`` reading
        ``when``, or from all of them."""
        near = self.slices
        if when is not None and len(near) > CAL_NEAREST:
            i = bisect.bisect(self.at, when) - CAL_NEAREST // 2
            i = min(max(i, 0), len(near) - CAL_NEAREST)
            near = near[i:i + CAL_NEAREST]
        return (POOL_NOMINAL_S if self.pooled else CAL_NOMINAL_S) / statistics.fmean(near)
