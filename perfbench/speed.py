"""The machine's current speed, from a fixed pure-Python reference loop.

On a shared machine the same solves run up to twice as fast at one moment
as at another, because other tenants contend for the cores; CPU time moves
with wall time, so the process is slowed, not descheduled.  On a shared
2-core machine with Python 3.11.7, back-to-back runs of a fixed loop of the
same kind of work as pentagem's (bitmask walks, set and dict lookups,
subgraph rebuilds) took from 21 to 37 ms, averaged over 0.2 s, within ten
seconds, with a lag-one autocorrelation of 0.8: the speed itself moves,
and faster than a 2 s solve lasts.

So ``Speed`` times the loop every ``EVERY_S`` from a ``SIGALRM`` handler,
also in the middle of an operation, and keeps a clock that stops while the
handler runs.  A time measured on that clock is scaled by ``REFERENCE_S``
over the mean loop time of the samples taken during it and of the one just
before and just after, which states it at the speed where the loop takes
``REFERENCE_S``.  The loop touches no pentagem code, so a change to
pentagem moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

REFERENCE_S = 0.030
EVERY_S = 0.2

_N = 48
_rng = random.Random(7)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def reference_loop() -> int:
    """Greedy colorings in rotated orders and one-vertex-deleted subgraph
    rebuilds of a fixed 48-vertex graph."""
    total = 0
    for _ in range(2):
        for start in range(0, _N, 4):
            col: dict[int, int] = {}
            for v in list(range(start, _N)) + list(range(start)):
                used = {col[u] for u in _bits(_ADJ[v]) if u in col}
                c = 1
                while c in used:
                    c += 1
                col[v] = c
            total += max(col.values())
        for k in range(_N):
            ids = [v for v in range(_N) if v != k]
            pos = {v: i for i, v in enumerate(ids)}
            sel = 0
            for v in ids:
                sel |= 1 << v
            for v in ids:
                m = 0
                for u in _bits(_ADJ[v] & sel):
                    m |= 1 << pos[u]
                total += m & 1
    return total


class Speed:
    """Reference-loop samples taken on a timer, and a clock that excludes them.

    Use as a context manager around everything to be timed; read times
    with ``clock`` and scale them with ``factor`` once the block has ended.
    """

    def __init__(self) -> None:
        self.at: list[float] = []        # clock reading at each sample
        self.loop_s: list[float] = []    # loop time of each sample
        self._paused = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
        except RecursionError:
            # the timer fired deep in a recursive solve; skip this sample
            # rather than fail the solve
            return
        finally:
            self._busy = False
        self.at.append(t0 - self._paused)
        self.loop_s.append(t1 - t0)
        self._paused += t1 - t0

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self) -> float:
        """Seconds on a clock that stands still while a sample is taken."""
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:
                return now - paused

    def factor(self, start: float, end: float) -> float:
        """Multiply a time from ``start`` to ``end`` on ``clock`` by this to
        state it at the reference speed."""
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        around = self.loop_s[lo:hi]
        return REFERENCE_S * len(around) / sum(around)
