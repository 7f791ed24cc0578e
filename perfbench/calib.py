"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared host the same Python code can run 1.7 times slower for minutes
at a time.  The benchmark therefore runs this loop, which never changes
and does not touch linhyp, interleaved with the ops it measures: after
each op it spends ``SHARE`` of that op's wall time in the loop.  A run's
speed is the median over passes of the mean time of one loop call, and
every end-to-end timing is scaled by ``REF_S / speed``.  The values read
as seconds (or ms) at a fixed reference speed, close to this loop's
typical speed on a 2-vCPU Xeon VM; the run record keeps the raw values.
"""

from __future__ import annotations

import statistics
import time
from array import array

REF_S = 0.010  # seconds of one reference call at the reference speed
SHARE = 0.05

_N = 240
_P = [(7 * i + 3) % 512 for i in range(512)]
_FLAT = array("H", ((i * 7 + j * 13 + i * j % 5) % _N
                    for i in range(_N) for j in range(_N)))
_SEEDS = ((1, 2), (3, 5), (7, 11), (2, 9)) * 6


class _Table:
    """A fixed 240 x 240 table read through a method, as a group's is."""

    def __init__(self):
        self.flat, self.n = _FLAT, _N

    def mul(self, i: int, j: int) -> int:
        return self.flat[i * self.n + j]


_TABLE = _Table()


def reference_call() -> int:
    """Fixed pure-Python work in two styles of linhyp's own: list and dict
    work on permutations, and bitset closures through table lookups."""
    q, s = list(range(512)), 0
    for _ in range(150):
        q = [_P[x] for x in q]
        d: dict[int, int] = {}
        for x in q[:128]:
            d[x] = d.get(x, 0) + 1
        s += len(d)
    mul = _TABLE.mul
    for seeds in _SEEDS:
        bits, stack = 1, [0]
        while stack:
            x = stack.pop()
            for g in seeds:
                y = mul(x, g)
                if not bits >> y & 1:
                    bits |= 1 << y
                    stack.append(y)
        s += bits.bit_count()
    return s


class Calibrator:
    """Reference calls interleaved with measured work, grouped by pass."""

    def __init__(self):
        self.debt = 0.0
        self.passes: list[list[float]] = []

    def next_pass(self) -> None:
        self.passes.append([])

    def after(self, busy_s: float) -> None:
        """Run reference calls until the loop has had about ``SHARE`` of
        the measured time so far; a call that overshoots is paid back by
        the following ops."""
        self.debt += busy_s * SHARE
        while self.debt > 0:
            self.debt -= self._call()

    def end_pass(self) -> None:
        """Make sure the pass that ends holds at least one call."""
        if not self.passes[-1]:
            self.debt -= self._call()

    def _call(self) -> float:
        t0 = time.perf_counter()
        reference_call()
        dt = time.perf_counter() - t0
        self.passes[-1].append(dt)
        return dt

    def speed(self) -> float:
        """Median over passes of the mean seconds of one reference call."""
        return statistics.median(statistics.fmean(p) for p in self.passes)

    def scale(self) -> float:
        """Factor that turns measured seconds into reference seconds."""
        return REF_S / self.speed()
