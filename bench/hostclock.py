"""A clock that runs at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed changes by
up to about 1.8x within a second, as other tenants load the physical
cores: the process keeps its CPU (CPU time equals wall time) but every
instruction runs slower.  A wall-clock latency then measures the
neighbours as much as the program.

``start`` arms an interval timer.  Every ``PERIOD_S`` its signal handler
runs ``kernel``, a fixed mix of the kind of work netring does (modular
row reduction, dict and tuple traffic, method calls, a sort, small numpy
array operations), twice: once to bring its code and data back into the
caches the program evicted, then timed (a mix tracked the program's
slowdowns more closely than any one of its parts did).  It sets the
clock's rate to ``KERNEL_REF_S`` over the median of the last three kernel
times.  ``now`` advances at that rate, so an interval read from it is the
time the same work would have taken on a host where the kernel takes
``KERNEL_REF_S``: the Xeon vCPU (2.0 GHz, Python 3.11, numpy 2.4) the
benchmark was written on, when its neighbours were quiet.  The handler's
own time is left out of the clock.  Without ``start`` the clock runs at
wall speed.
"""
from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.025
KERNEL_REF_S = 0.0003
_P = 7919
_A = np.arange(64, dtype=np.int64)
_PERM = _A[::-1].copy()


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def at(self, x):
        return self.a * x + self.b


# (clock reading at the mark, perf_counter at the mark, rate)
_state = (0.0, time.perf_counter(), 1.0)
_recent: list[float] = []
_busy = False


def kernel() -> int:
    rows = [[(i * j + 3 * i + 1) % _P for j in range(8)] for i in range(8)]
    for c in range(8):
        inv = pow(rows[c][c] or 1, _P - 2, _P)
        piv = [x * inv % _P for x in rows[c]]
        for r in range(8):
            if r != c:
                f = rows[r][c]
                rows[r] = [(a - f * b) % _P for a, b in zip(rows[r], piv)]
    d: dict = {}
    for i in range(300):
        d[(i & 15, i >> 4)] = d.get((i & 7, i >> 3), 0) + i
    s = rows[0][0] + len(d)
    s += sum(p.at(3) for p in [_Pair(i, i + 1) for i in range(100)])
    s += len(frozenset(tuple(sorted(i * _P % 1009 for i in range(200)))))
    for _ in range(20):
        s += int(((_A * 3 + 1) % 7)[_PERM].sum())
    return s


def now() -> float:
    """Seconds at the reference speed; only differences are meaningful."""
    v, mark, rate = _state      # one read, so a signal cannot split it
    return v + (time.perf_counter() - mark) * rate


def _probe(signum=None, frame=None) -> None:
    global _state, _recent, _busy
    if _busy:
        return
    _busy = True
    try:
        t = time.perf_counter()
        v, mark, rate = _state
        v += (t - mark) * rate
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        _recent = (_recent + [t1 - t0])[-3:]
        _state = (v, t1, KERNEL_REF_S / sorted(_recent)[len(_recent) // 2])
    finally:
        _busy = False


def start() -> None:
    """Probe the host now and then every ``PERIOD_S``."""
    global _recent
    _recent = []
    signal.signal(signal.SIGALRM, _probe)
    for _ in range(3):
        _probe()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    """Disarm the timer; the clock keeps its last rate."""
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
