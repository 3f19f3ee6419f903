"""Rescaling measured times to a reference machine speed.

On a shared machine the interpreter's speed drifts.  Identical corpus passes
in one process took from 1.8 to 3.3 s, with CPU time moving as much as wall
time, in phases that last from a fraction of a second to minutes.  Medians
over passes cannot remove drift that lasts as long as a run.

While a Probe runs, a timer signal interrupts the program every INTERVAL_S
seconds, and the handler times a fixed piece of pure-Python work.  The
program runs at the speed the probes see around it, so a measured interval
is reported as

    net seconds * REFERENCE_S / mean(probe durations in the interval)

where net seconds leave out the probes themselves.  On corpus passes this
cut the coefficient of variation from 13% to 3%.  The probe work (tuple
maxima and dict inserts, as in the degree tables) imports nothing from the
library, so a change to the library cannot move it.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# Probe duration at the reference speed; times are reported at that speed.
REFERENCE_S = 0.002

_DEGREES = [tuple((i * 7 + k * 3) % 5 for k in range(7)) for i in range(800)]
_INDEX = {d: k for k, d in enumerate(_DEGREES)}


def _probe_work() -> int:
    # Every object made here is freed before the next one is made, so the
    # probe leaves the garbage collector's allocation counts, and with them
    # the points where the program's collections fall, where they were.
    acc = _DEGREES[0]
    total = 0
    for d in _DEGREES:
        acc = tuple(max(a, b) for a, b in zip(acc, d))
        total += _INDEX[d]
    return total


class Probe:
    """Context manager that runs the probe on a timer signal.

    `clock()` is perf_counter minus the time spent in probes, so intervals
    measured with it hold only the program's own work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_) -> None:
        """Time the probe work once (also the signal handler)."""
        t0 = perf_counter()
        _probe_work()
        took = perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def clock(self) -> float:
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Scale from net seconds to reference seconds for the work done
        since `mark()` returned `since`."""
        if len(self.samples) == since:
            self.sample()
        return REFERENCE_S / statistics.mean(self.samples[since:])

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
