"""CPU speed probe: turns wall times into times at a fixed reference speed.

On a shared host the same single-threaded op runs up to about 1.8x slower
while a neighbour loads the other hardware thread of the core, and such
periods last from seconds to minutes.  CPU time slows down just as much,
so neither wall nor CPU time of an op is steady from run to run.

`probe()` times a small fixed kernel of function calls, small-int
arithmetic, set and dict work and a little Fraction arithmetic.  It uses only the standard library, never jumploci, so a change
to the library cannot move it.  A repetition probes the speed every few
hundredths of a second, during ops too, and divides each op's wall time
by the median of the probes around and during it over REF_PROBE_S:

    normalized = wall * REF_PROBE_S / probe

A normalized time is the time the op would take on a CPU on which the
kernel takes REF_PROBE_S (about the kernel's best time on a 2-vCPU x86-64
cloud VM with CPython 3.11, when the host is quiet).  Starting an
interpreter and importing slows down less than the kernel on a loaded
host, so the start of an op that is a process of its own is scaled by
`probe_process` instead, a fresh interpreter that imports and runs the
kernel a few times.  A slower library gives a
proportionally larger normalized time; a slower host does not.
"""

import bisect
import gc
import itertools
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_PROBE_S = 0.00037
REF_PROCESS_S = 0.07
TIMER_S = 0.05
PROCESS_EVERY_S = 1.0
NEIGHBOURS = 2
_REPEAT = 3


def _step(x, y=1):
    return (x * 3 + y) & 0xFFFF


def _kernel():
    # mostly Python function calls and small-int arithmetic, then set and
    # dict work on frozensets and a little Fraction elimination, weighted
    # so that the kernel slows down on a loaded host about as much as the
    # workloads' ops do
    x = 0
    for i in range(1300):
        x = _step(x, i)
    faces = [frozenset(c) for c in itertools.combinations(range(8), 3)]
    table = {}
    for f in faces:
        for g in faces[:6]:
            u = f | g
            table[u] = table.get(u, 0) + len(f & g)
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(3)] for i in range(3)]
    for c in range(3):
        if m[c][c]:
            for i in range(c + 1, 3):
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return x + len(table) + m[2][2].numerator


def probe():
    """Best of a few timings of the kernel, in seconds.

    The cyclic garbage collector is off meanwhile: a collection would time
    the heap the ops left behind, not the CPU.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(_REPEAT):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Probes taken around and during a repetition's ops, and the scaled op times.

    For ops that run in this process, a SIGALRM timer takes a kernel probe
    every TIMER_S seconds, inside long ops too.  For ops that are processes
    of their own (`processes`), a timer probe would take the CPU from the
    op, so a kernel probe is taken before every op instead, and a process
    probe once PROCESS_EVERY_S seconds have passed since the last one.
    Probes are recorded with their start and end, so that probe time inside
    an op is taken out of its time.
    """

    def __init__(self, processes=False):
        self.processes = processes
        self.probes = []  # kernel probes: (start, end, seconds), in time order
        self.process_probes = []  # process probes, likewise

    def _take(self, *_):
        t0 = perf_counter()
        value = probe()
        self.probes.append((t0, perf_counter(), value))

    def _take_process(self):
        t0 = perf_counter()
        value = probe_process()
        self.process_probes.append((t0, perf_counter(), value))

    def start(self):
        self._take()
        if self.processes:
            self._take_process()
        else:
            signal.signal(signal.SIGALRM, self._take)
            signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)

    def before_op(self):
        if self.processes:
            self._take()
            if perf_counter() - self.process_probes[-1][1] >= PROCESS_EVERY_S:
                self._take_process()

    def stop(self):
        if self.processes:
            self._take_process()
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def spent(self):
        return sum(e - s for s, e, _ in self.probes + self.process_probes)

    def scaled(self, spans):
        """(wall, scaled) seconds of each op, given its (start, end) spans.

        The wall time leaves out the probes inside the op.  A probe level
        is the median of the probes inside the op and of the NEIGHBOURS
        probes on either side of it, so that one disturbed probe does not
        move it.  An op that is a process scales its first REF_PROCESS_S
        seconds, about an interpreter start, by the process probes and the
        rest by the kernel probes.
        """
        out = []
        for s, e in spans:
            inside, level = _window(self.probes, s, e)
            wall = (e - s) - sum(pe - ps for ps, pe, _ in inside)
            scale = REF_PROBE_S / level
            if self.processes:
                start = min(1.0, REF_PROCESS_S / wall)
                scale = start * REF_PROCESS_S / _window(self.process_probes, s, e)[1] + (1 - start) * scale
            out.append((wall, wall * scale))
        return out


def _window(probes, s, e):
    """(probes inside [s, e], median of those and of NEIGHBOURS on either side)."""
    starts = [p[0] for p in probes]
    lo = bisect.bisect_left(starts, s)
    hi = bisect.bisect_left(starts, e)
    window = probes[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
    return probes[lo:hi], statistics.median(v for _, _, v in window)


def probe_process():
    """Wall time of a fresh interpreter that imports a few standard modules
    and runs the kernel, in seconds: the probe for ops that are processes."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


if __name__ == "__main__":
    import argparse  # noqa: F401  (imported for its cost, as a CLI process does)
    import json  # noqa: F401

    for _ in range(10):
        _kernel()
