"""A fixed reference kernel that measures how fast the machine runs now.

A shared host's speed drifts.  On a 2-core VM the program ran up to 1.8x
slower for minutes at a time, every module alike, so ten runs of one
workload could spread by more than any bound allows.  The benchmark
therefore runs a fixed kernel beside the program, between the items, and
divides the program's times by the kernel's slowdown against its nominal
time.  A slow spell of the machine slows both and cancels, while a slower
program is not seen by the kernel at all: it uses only numpy, never
``ou_spectra``.

The kernel is a dense solve of side 700 (a 3.9 MB matrix).  A pure-Python
dictionary loop, tried as well, drifted on its own: on ``verify_poly`` it
widened the spread of ten-second passes from 0.10 to 0.28, where the
solve narrowed it to 0.08.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one kernel call takes on a 2-core VM at its usual speed; it sets
#: the unit of the paced times, not their spread.
NOMINAL_S = 0.016
SIDE = 700

_operands = []


def kernel():
    import numpy as np
    if not _operands:
        rng = np.random.default_rng(0)
        _operands.append(rng.standard_normal((SIDE, SIDE))
                         + SIDE * np.eye(SIDE))
        _operands.append(np.ones(SIDE))
    return np.linalg.solve(*_operands)


class Pace:
    """Samples of the kernel's speed.

    ``owe(seconds)`` adds ``seconds`` of kernel time to run and runs whole
    kernel calls until that debt is paid, so the kernel takes a fixed share
    of the run however short the items beside it are.  ``take()`` returns
    the slowdown, the median time of one call over ``NOMINAL_S``, of the
    calls since the last ``take()``.  The median, not the mean, because a
    call that loses its core for a moment says little about the speed of
    the items around it; on ``verify_poly`` it narrowed the ten-seed spread
    of the paced pass time from 0.107 to 0.064.
    """

    def __init__(self, clock=time.perf_counter, run=kernel):
        self.clock = clock
        self.run = run
        self._owed = 0.0
        self._times = []
        for _ in range(3):           # first calls load and allocate
            self.run()

    def _call(self):
        start = self.clock()
        self.run()
        elapsed = self.clock() - start
        self._times.append(elapsed)
        return elapsed

    def owe(self, seconds):
        self._owed += seconds
        while self._owed > 0.0:
            self._owed -= self._call()

    def take(self):
        slowdown = statistics.median(self._times) / NOMINAL_S
        self._times = []
        return slowdown
