"""In-run machine speed, for wall times on a shared host.

The reference machine is a virtual machine whose speed drifts by about
30 % in phases of seconds to minutes, so raw wall times of the same work
differ more between runs than a regression bound can allow.  A Pace
samples that speed while the workload runs: every INTERVAL_S of wall
time a SIGALRM handler runs a fixed, stdlib-only tick (Fraction and dict
work of the kind ndescent does) and times it.  The ticks interleave with
the workload's own bytecode, so they see the same phases it does.

An interval's time is then reported twice: ``wall`` is its wall time net
of the ticks inside it, and ``scaled`` is that time multiplied by
REF_TICK_S over the interval's typical tick, i.e. the time the work
would have taken on the reference machine at its reference speed.  The
typical tick is the mean with each tick capped at WINSOR times the
median: the host now and then stalls the virtual CPU for tens of
milliseconds, and a stall that lands in a 0.6 ms tick would otherwise
swing the whole interval's scale.  The tick does not call ndescent, so
a faster program gives a proportionally smaller scaled time.
"""

import gc
import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.02
# The typical cost of one tick on the reference machine (2 vCPUs,
# Python 3.11.7), measured when the benchmark was calibrated.
REF_TICK_S = 0.00065
# An interval with fewer ticks is scaled by all the process's ticks.
MIN_TICKS = 5
WINSOR = 3.0


def tick_work():
    s = Fraction(1)
    for i in range(1, 60):
        s = s * Fraction(i, i + 1) + Fraction(1, i)
    d = {j: (j, j) for j in range(200)}
    return s, len(d)


def typical(ticks):
    cap = WINSOR * statistics.median(ticks)
    return statistics.fmean(min(t, cap) for t in ticks)


class Pace:
    """Times every tick while started; a Pace that took no ticks scales
    by 1."""

    def __init__(self):
        self.ticks = array("d")
        self.running = False

    def _tick(self, signum, frame):
        # the program's garbage is not collected on the tick's clock
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        tick_work()
        self.ticks.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True

    def stop(self):
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def mark(self):
        return time.perf_counter(), len(self.ticks)

    def since(self, mark):
        """The Span of the time since ``mark``."""
        t0, n0 = mark
        wall = time.perf_counter() - t0
        inside = self.ticks[n0:]
        sample = inside if len(inside) >= MIN_TICKS else self.ticks
        speed = REF_TICK_S / typical(sample) if sample else 1.0
        return Span(wall - sum(inside), speed)


class Span:
    """Wall seconds net of ticks, and the reference speed over the
    machine's speed in that time."""

    def __init__(self, wall, speed):
        self.wall, self.speed = wall, speed

    @property
    def scaled(self):
        return self.wall * self.speed

    def minus(self, other):
        """This span without ``other``, a part of it, at this span's speed."""
        return Span(self.wall - other.wall, self.speed)
