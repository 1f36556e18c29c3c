"""CPU speed sampling, so that times taken on a shared host can be compared.

On a host shared with other tenants (measured on a 2-vCPU x86-64 cloud
host, Python 3.11) the same pass takes 1.4 s or 2.4 s depending on what
runs next to it, and CPU time tracks wall time, so the core itself runs
slower; the slow and fast spells last from a fraction of a second to
minutes.  While a span is measured, a SIGALRM timer interrupts the program
every ``INTERVAL_S`` and times a fixed pure-Python kernel (calls, integer
arithmetic, tuples, dicts, frozen dataclasses, Fractions, strings: what the
program under test does).  Its ratio to the program's speed still wanders
by about 5 % from second to second, against 20 % and more for raw wall
time.  The span is reported in *reference seconds*: its wall time minus the
sampling time, scaled by ``REFERENCE_SAMPLE_S`` over the mean sample time,
i.e. the time it would have taken at the speed at which one sample takes
``REFERENCE_SAMPLE_S``.  The kernel uses no code of the program, so no
change to the program moves it.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from time import perf_counter

# Roughly the sample time on a quiet core of that host; it only sets the
# scale of the reported numbers.
REFERENCE_SAMPLE_S = 0.001
INTERVAL_S = 0.025
# Half-width of the window of samples that sets the speed at one instant.
WINDOW_S = 0.1


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int


def _step(a: int, b: int) -> tuple[int, int]:
    return (3 * a + b) % 101, gcd(a, b)


def _kernel() -> int:
    """A fixed mix of what the program does: calls, tuples, dicts, frozen dataclasses, Fractions, str."""
    acc = 0
    table = {}
    for i in range(1, 400):
        a, b, c = i % 97, i % 89, -i
        table[(a, b, c)] = gcd(6 * a + 2, b - c) + max(a, b)
    for i in range(1, 150):
        x, g = _step(i, i % 37 + 1)
        table[_Cell(x, g)] = [x, g, i]
        acc += (Fraction(x + 1, g + 2) + Fraction(1, i)).numerator % 7
    for i in range(1, 120):
        t = tuple(j * i % 13 for j in range(6))
        acc += sum(dict(zip("abcdef", t)).values()) + len(",".join(str(v) for v in t))
    return acc + len(table)


class SpeedSampler:
    """Context manager timing a span and the CPU speed during it.

    After the block, ``seconds`` is the wall time of the block without the
    sampling, and ``scale`` turns it into reference seconds.  One sample is
    taken on entry, outside the timed block, so short blocks get one too.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sample_ends: list[float] = []
        self._spent = 0.0
        self.seconds = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # neither trigger nor time a collection of the program's objects
        try:
            t0 = perf_counter()
            _kernel()
            t1 = perf_counter()
            self.samples.append(t1 - t0)
            self.sample_ends.append(t1)
        finally:
            if enabled:
                gc.enable()
        self._spent += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = perf_counter() - self._t0 - self._spent
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        return REFERENCE_SAMPLE_S * len(self.samples) / sum(self.samples)

    def scales_at(self, instants) -> list[float]:
        """Scale at each ``perf_counter`` instant, from the samples within ``WINDOW_S`` of it.

        Per-item times need the speed at the moment the item ran: the speed
        changes within a pass, and a median of items does not average it
        out the way a pass total does.
        """
        prefix = [0.0]
        for s in self.samples:
            prefix.append(prefix[-1] + s)
        out = []
        for t in instants:
            lo = bisect_left(self.sample_ends, t - WINDOW_S)
            hi = bisect_right(self.sample_ends, t + WINDOW_S)
            out.append(REFERENCE_SAMPLE_S * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo else self.scale)
        return out
