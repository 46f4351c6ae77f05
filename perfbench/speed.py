"""The host's speed, measured while the benchmark runs.

On a shared host, the speed drifts by up to a factor of two over seconds to
minutes, because other guests share its cores and caches, and every job's
wall time drifts with it.  SpeedProbe times a fixed pure-Python kernel on a
timer signal every PERIOD_S of wall time, in the benchmark's own process and
so also in the middle of the jobs.  The kernel imports nothing from decompgen:
its work is the same on every commit, and its time follows only the host.

A job's time is brought to reference speed by multiplying it by
`SpeedProbe.factor`, the host's mean speed during the job: the mean of
NOMINAL_S over the kernel's time per call, over the samples taken during the
job or within WINDOW_S of it.  The job's time first loses the probe's own
time inside it, `SpeedProbe.own_time`.

The probe serves only a busy process.  A process that sleeps between
samples, as one waiting for a child does, wakes for each sample on a cold
core, and the kernel reads up to twice as slow as the host runs.  Around
such a wait, `loop_speed` runs the kernel in a loop of its own instead.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Reference speed: about the kernel's median time per call in the samples of
# benchmark runs on a 2-vCPU x86-64 guest with CPython 3.11.  The samples run
# amid the engine's work, on caches it has filled, and read slower than the
# kernel does in a loop of its own.
NOMINAL_S = 0.002
# The same reference speed, read from the kernel in a loop of its own.
LOOP_NOMINAL_S = 0.0017
PERIOD_S = 0.1
CALLS = 4                    # kernel calls per sample, about 6 ms
WINDOW_S = 0.25


class _ModP:
    """Integers mod a prime, called through methods as the engine's fields are."""

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p


class _Q:
    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


def _sparse_product(dom, f, g):
    acc = {}
    for (i1, j1), c1 in f:
        for (i2, j2), c2 in g:
            key = (i1 + i2, j1 + j2)
            c = dom.mul(c1, c2)
            acc[key] = dom.add(acc[key], c) if key in acc else c
    terms = [(e, c) for e, c in acc.items() if c]
    terms.sort(key=lambda t: (t[0][0] + t[0][1], t[0]), reverse=True)
    return tuple(terms)


def reference_kernel():
    """Fixed work of the kinds the engine does: sparse products of bivariate
    polynomials mod a prime and over Q, held in tuples and dicts, with the
    coefficient arithmetic called through methods."""
    gf, q = _ModP(1000003), _Q()
    f = tuple(((i, j), (i * 7919 + j * 104729 + 3) % 1000003)
              for i in range(4) for j in range(4))
    h = _sparse_product(gf, _sparse_product(gf, f, f), f)
    f = tuple(((i, j), Fraction(i + 1, j + 2)) for i in range(3) for j in range(3))
    g = tuple(((i, j), Fraction(j - 1, i + 1)) for i in range(3) for j in range(3))
    _sparse_product(q, _sparse_product(q, f, g), f)
    return h


def loop_speed(seconds):
    """The host's mean speed, as a multiple of the reference speed, while
    the kernel runs in a loop for `seconds`."""
    speeds = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        speeds.append(LOOP_NOMINAL_S / (t1 - t0))
        if t1 >= end:
            return statistics.fmean(speeds)


class SpeedProbe:
    """Samples the kernel's time on SIGALRM while the `with` block runs."""

    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.ends = []
        self.per_call = []      # the kernel's time per call in each sample
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            reference_kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.per_call.append((t1 - t0) / CALLS)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_time(self, start, end):
        """The probe's time inside [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, start, end):
        """The host's mean speed over [start, end], as a multiple of the
        reference speed: work that took one second of the span takes this
        many seconds at reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:            # no sample near the span: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return statistics.fmean(NOMINAL_S / t for t in self.per_call[lo:hi])
