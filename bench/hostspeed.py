"""The host's speed, sampled while the benchmark measures.

On a shared VM a fixed pure-Python loop can run a third slower or faster
from one second, or one minute, to the next, and a process's CPU time moves
with its wall time, so neither times the library steadily.  The
Sampler interleaves a fixed reference computation with the measured work: a
SIGALRM every PERIOD_S seconds runs one reference_unit() in the middle of
whatever the process is doing.  Over an interval, reference time divided by
reference units is the host's current seconds per unit, and

    scaled = (wall - reference time) * REF_UNIT_S / (seconds per unit)

is how long the measured work alone would take on a host running the
reference at REF_UNIT_S per unit.  The reference is pure stdlib, Fraction
arithmetic on short coefficient lists like the library's own, and never
calls the library, so a change to the library cannot move it.
"""

import signal
import time
from fractions import Fraction

PERIOD_S = 0.005         # a reference unit every 5 ms, about 10% of the time
REF_UNIT_S = 0.0005      # nominal seconds per reference_unit()

_REF_A = [Fraction(i + 1, 2 * i + 3) for i in range(10)]
_REF_B = [Fraction(3 - i, i + 5) for i in range(10)]


def reference_unit():
    """A product of two polynomials with Fraction coefficients."""
    prod = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
    for i, x in enumerate(_REF_A):
        for j, y in enumerate(_REF_B):
            prod[i + j] += x * y
    return prod


class Sampler:
    """Samples the host's speed between start() and stop().

    After stop(), ``measured(wall)`` splits a wall time taken over the same
    interval into (time of the measured work, that time scaled to nominal
    host speed).  Intervals too short for a sample use the speed of the
    last interval that had one.
    """

    def __init__(self):
        self.ref_s = 0.0
        self.units = 0
        self.unit_s = REF_UNIT_S
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_unit()
        self.ref_s += time.perf_counter() - start
        self.units += 1

    def start(self):
        self.ref_s = 0.0
        self.units = 0
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.units:
            self.unit_s = self.ref_s / self.units

    def measured(self, wall):
        work = wall - self.ref_s
        return work, work * REF_UNIT_S / self.unit_s
