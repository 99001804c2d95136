"""A reference kernel that tells how fast the host is right now.

The box this benchmark was written on runs the same Python code at
speeds that differ by +-10 % from one process to the next and, for
minutes at a time, by 25 % and more when a neighbour is busy (CPU time
inflates with wall time, so it is the host, not scheduling inside the
guest).  Measured with plain wall-clock and identical code, two sets of
``--check-repeat`` differed by 44 % in ``setup_s``, and ``ops_per_s``
read 27 % lower than it had half an hour before: a host-clock metric
taken raw says more about the neighbour than about the program.

So this fixed kernel -- random reads of a heap-sized dict of Python
objects, heap pushes and pops, small NumPy comparisons: the simulator's
own instruction mix -- is read eleven times inside and after each
child's timed phase, and the child's host seconds (set-up and timed
phase alike: a process runs at one speed for its few seconds of life)
are reported as *reference seconds*: the phase's whole wall time times
``REFERENCE_S`` over the median reading.  On a quiet reference box the
two are equal.

Every reading is taken right after the program has run, with the caches
full of the program's data.  A discarded pass comes first and a pass
allocates nothing, so that what is measured is the host's speed, not
how much of the kernel's table the program has just evicted or the
state it left the allocator in.  (Read in a fresh process before
set-up, the kernel is up to 17 % faster than after it; no reading is
taken there.)
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter
from typing import List

import numpy as np

#: the kernel's median reading on the reference box when nothing else
#: runs; only sets the scale in which host seconds are reported
REFERENCE_S = 0.0188

_TABLE_SIZE = 120_000
_READS = 16_000


class ReferenceKernel:
    def __init__(self) -> None:
        rnd = random.Random(1)
        self._table = {i: (i, float(i), (i,)) for i in range(_TABLE_SIZE)}
        self._order = [rnd.randrange(_TABLE_SIZE) for _ in range(_READS)]
        # built once: a pass allocates nothing, so its time does not
        # depend on the state the program leaves the allocator in
        self._items = [(float(i), k) for k, i in enumerate(self._order)]
        self._boxes = np.arange(4096.0).reshape(1024, 4)
        self._point = np.array([2000.0, 2001.0, 2002.0, 2003.0])

    def read(self, passes: int = 1) -> List[float]:
        """Host seconds of ``passes`` passes of the kernel now, after
        one discarded pass."""
        self._pass()
        return [self._pass() for _ in range(passes)]

    def _pass(self) -> float:
        table, boxes, point = self._table, self._boxes, self._point
        push, pop = heapq.heappush, heapq.heappop
        t0 = perf_counter()
        heap: list = []
        total = 0.0
        for item, i in zip(self._items, self._order):
            _, value, cell = table[i]
            total += value + cell[0]
            if i & 3 == 0:
                push(heap, item)
        while heap:
            total += pop(heap)[0]
        for _ in range(120):
            np.nonzero(np.all(boxes <= point, axis=1) & np.all(point <= boxes + 50, axis=1))
        return perf_counter() - t0


def reference_seconds(seconds: float, readings: List[float]) -> float:
    """``seconds`` of wall time at reference speed, given the child's
    kernel readings (none: unscaled)."""
    if not readings:
        return seconds
    return seconds * REFERENCE_S / statistics.median(readings)
