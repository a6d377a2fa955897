"""Speed of the machine while the benchmark runs, from fixed reference kernels.

The benchmark runs on a few cores of a shared host.  Work from other
tenants slows it in stretches that last from a second to minutes, by up
to 1.8x for interpreter-bound code and 1.4x for array-bound code, and a
30-second run can fall wholly inside one.  So every timing is divided by
the speed of the machine measured while it ran: ``Sampler`` interrupts
the measured work every ``INTERVAL_S`` seconds (a ``SIGALRM`` handler) and
times two small kernels that live here, not in trigsum, so no change to
the package moves them.  The handler's own time is left out of every
timing (``Sampler.clock``).

``interp`` is scalar Python (float arithmetic, calls, ``math``, string
formatting), like the phase path, the dispatch and the report.  ``array``
is double-double style numpy arithmetic, like the Abel grid engine.  A
workload's slowdown is a blend of the two; ``slowdown()`` is the weighted
geometric mean of each kernel's time over its reference time.  Each
workload's weight in ``INTERP_WEIGHT`` is the one that left the least
pass-to-pass spread of the normalized pass time over two-minute runs on
the machine named below; set-up uses the weight of its workload.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Median times of the kernels on a quiet 2-CPU Intel Xeon (Python 3.11,
#: numpy 2.4).  They fix the scale of the normalized figures: on that
#: machine, when it is quiet, a normalized time equals the wall time.
REF_INTERP_S = 0.00175
REF_ARRAY_S = 0.0019

INTERP_WEIGHT = {"abel_grid": 0.5, "abel_point": 0.6, "finite_rows": 0.7}
INTERVAL_S = 0.2
#: At most this many seconds either side of a timed stretch give its speed.
WINDOW_S = 0.6

_SPLIT = 134217729.0   # 2**27 + 1, Dekker's splitter
_ARRAY = np.linspace(0.5, 1.5, 1 << 15)
# The kernels allocate nothing while sampling: a sample taken at the
# workload's own peak then adds nothing to its peak resident memory.
_HI, _LO, _P, _AH, _AL, _PROD, _ERR, _S = (np.zeros_like(_ARRAY) for _ in range(8))


def interp_kernel() -> float:
    acc, chars = 0.0, 0
    for k in range(1, 8001):
        x = k * 1e-3
        acc += math.cos(x) * (1.0 + x) / k
        if k % 8 == 0:
            chars += len(format(acc, ".17g"))
    return acc + chars


def array_kernel() -> float:
    """Six double-double products (Dekker split, two-sum), in place."""
    a, hi, lo, p, ah, al, prod, err, s = _ARRAY, _HI, _LO, _P, _AH, _AL, _PROD, _ERR, _S
    np.copyto(hi, a)
    lo.fill(0.0)
    for _ in range(6):
        np.multiply(a, _SPLIT, out=p)
        np.subtract(p, a, out=ah)
        np.subtract(p, ah, out=ah)           # ah = p - (p - a)
        np.subtract(a, ah, out=al)
        np.multiply(hi, a, out=prod)
        np.multiply(ah, ah, out=err)
        err -= prod
        np.multiply(ah, al, out=s)
        s *= 2.0
        err += s
        np.multiply(al, al, out=s)
        err += s                             # err = ((ah*ah - prod) + 2*ah*al) + al*al
        np.add(prod, err, out=s)
        np.subtract(s, prod, out=p)          # p = s - prod
        err -= p
        np.subtract(s, p, out=al)
        np.subtract(prod, al, out=al)        # al = prod - (s - (s - prod))
        lo += al
        lo += err
        np.copyto(hi, s)
    return float(hi.sum() + lo.sum())


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def sample() -> tuple[float, float]:
    """One timing of each kernel."""
    return _time(interp_kernel), _time(array_kernel)


def slowdown(samples, interp_weight: float) -> float:
    """How many times slower than the reference the machine ran (median)."""
    return statistics.median(
        (ti / REF_INTERP_S) ** interp_weight * (ta / REF_ARRAY_S) ** (1.0 - interp_weight)
        for ti, ta in samples)


class Sampler:
    """Samples the kernels every ``INTERVAL_S`` seconds while started.

    ``clock()`` is ``time.perf_counter()`` minus the time spent in the
    handler, so a stretch timed with it is the measured work alone.
    """

    def __init__(self, interp_weight: float):
        self.interp_weight = interp_weight
        self.samples: list[tuple[float, float, float]] = []   # (clock, t_interp, t_array)
        self.overhead_s = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.overhead_s

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ti, ta = sample()
        self.samples.append((t0 - self.overhead_s, ti, ta))
        self.overhead_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowdown(self, t0: float, t1: float) -> float:
        """Slowdown over the ``clock()`` stretch [t0, t1].

        From the samples taken within the stretch's own length of it, but
        at most ``WINDOW_S``; if those are fewer than two, from the two
        nearest.  A short stretch (one query) so takes the speed of the
        moment it ran in; the speed can change within a tenth of a second.
        """
        window = min(WINDOW_S, t1 - t0)
        near = [(t, ti, ta) for t, ti, ta in self.samples if t0 - window <= t <= t1 + window]
        if len(near) < 2:
            near = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))[:2]
        if not near:
            raise RuntimeError("no speed samples were taken")
        return slowdown([(ti, ta) for _, ti, ta in near], self.interp_weight)
