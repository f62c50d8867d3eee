"""Interpreter-speed sampling, so times can be rescaled to a fixed speed.

On a shared virtual machine the speed of each core wanders by 20% and more,
with a correlation time of about a second and slower drift on top, so raw
pass times of the same code spread past any useful bound.  A ``Pacer``
times a short fixed reference loop from a SIGALRM handler every
``INTERVAL_S`` of wall time, in the program's own process and thread.
Each stretch of counted time between two samples is weighted by
``REFERENCE_S`` over the reference time sampled at its end, which rescales
it to the time it would have taken at the speed where the loop takes
``REFERENCE_S``.  The handler's own time is kept out of both the raw and
the rescaled sums (``overhead_s`` adds it up).

The loop is pure Python of the kind cpstrata runs (tuples, a dict, ints
and Fractions), timed once per sample with the garbage collector off, so
it starts with the caches as the program left them.  That is what makes it
track the slowdowns that other tenants cause through shared caches and
memory: on cohomology-large, classify-small and models-small the spread
of pass times over six passes fell from 0.10-0.18 (raw) to 0.02-0.03
(rescaled), where a warm repeat of the loop reached 0.04-0.06 and a loop
of small-int arithmetic 0.06-0.09.  The cost is that the sample also sees
the program's own cache footprint: it ran about 15% slower after
classify-small's code than after models-small's.  A change that shrinks the
program's footprint therefore shows a little less in the rescaled time
than in raw time, which the traced run reports beside it
(bench.raw_wall_s, bench.ref_sample_us).

Signal handlers run between bytecodes, so a sample is late while a long C
call runs; weighting by the stretch length keeps late samples correct.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# the loop's time at the reference speed: about its median while cpstrata
# runs on the 2-core x86-64 virtual machine the bounds were set on
REFERENCE_S = 1.2e-4


def reference_loop() -> Fraction:
    table: dict = {}
    acc = Fraction(0)
    for i in range(48):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + i * (i + 3) // 5
        acc += Fraction(i % 5 + 1, i % 3 + 2)
    return acc + sum(table.values())


class Pacer:
    """Raw and rescaled time of the code run while counting is on.

    ``start`` takes a first sample and starts counting; ``pause`` and
    ``resume`` bracket work that must not count (output checks), while
    samples go on; ``stop`` ends counting and sampling.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.paced_s = 0.0
        self.overhead_s = 0.0
        self.samples: list[float] = []
        self._mark = 0.0  # where the open stretch began
        self._counting = False

    def _take_sample(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        begin = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(end - begin)
        return begin

    def _close(self, end: float) -> None:
        stretch = end - self._mark
        self.raw_s += stretch
        self.paced_s += stretch * REFERENCE_S / self.samples[-1]

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        begin = self._take_sample()
        if self._counting:
            self._close(begin)
        self._mark = time.perf_counter()
        self.overhead_s += self._mark - entered

    def _masked(self, action) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            action()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._take_sample()
        self.resume()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        def action():
            self._close(time.perf_counter())
            self._counting = False

        self._masked(action)

    def resume(self) -> None:
        def action():
            self._mark = time.perf_counter()
            self._counting = True

        self._masked(action)

    def stop(self) -> None:
        if self._counting:
            self.pause()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def rescale(self, seconds: float) -> float:
        """``seconds`` spent before ``start``, rescaled by the median sample."""
        return seconds * REFERENCE_S / statistics.median(self.samples)
