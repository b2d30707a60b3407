"""Machine speed, read while each op runs, to normalize its latency.

The benchmark shares its machine with other tenants.  On the 2-vCPU VM
it was built on, each vCPU switched between two speeds, a fast one and
one about 1.9 times slower, every second or so, and spent minutes at a
time mostly in the slow one; the two vCPUs switched independently, and
there was no steal time (process time equalled wall time).  No
statistic over the ops themselves removes a slowdown that lasts a whole
run, and a reading taken before and after a long op misses a switch in
its middle.

So a :class:`Meter` samples the speed *during* each op: a ``SIGALRM``
timer interrupts the op every ``INTERVAL_S`` seconds and times one short
run of a fixed reference body, which shares the machine with the op but
no code with the program.  The op's latency is reported at the body's
nominal speed:

    normalized = (elapsed - time spent in samples) * NOMINAL_S / mean sample

A change to the program moves ``elapsed`` and leaves the body alone, so
it moves the normalized latency in full; a change in machine speed moves
both.  Raw wall times are reported beside the normalized ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List

import numpy

#: Wall seconds between two samples while an op runs.
INTERVAL_S = 0.01
#: Samples taken just before and just after the op: a short op sees few
#: or no timer samples, so these carry its reading.
ENDPOINT_SAMPLES = 3
#: One sample on the machine the benchmark was built on, in a fast
#: period: normalized times read as wall times at that speed.
NOMINAL_S = 0.0001


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _body() -> int:
    """Interpreter work of the kinds the ops do (objects, dicts, lists,
    integer arithmetic) plus one small numpy expression."""
    counts = {}
    queue = []
    total = 0
    for i in range(200):
        item = _Item((i * 7919) & 127, i)
        counts[item.key] = counts.get(item.key, 0) + 1
        queue.append(item)
        if len(queue) > 32:
            total += queue.pop(0).value % 11
    column = numpy.arange(256, dtype=numpy.int64)
    return total + int(((column * 3 + counts[0]) % 7).sum())


def sample() -> float:
    """Seconds of one body run: the faster of two back-to-back runs, so
    that an interrupt landing in one does not count."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _body()
        best = min(best, time.perf_counter() - start)
    return best


class Meter:
    """Samples the reference before, during and after a block of code.

    ``spent`` is the wall time the samples taken during the block cost;
    subtract it from the block's elapsed time.  ``scale`` turns the rest
    into seconds at the nominal speed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self.samples = [sample() for _ in range(ENDPOINT_SAMPLES)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(sample() for _ in range(ENDPOINT_SAMPLES))

    @property
    def scale(self) -> float:
        """Nominal over measured speed: the time-average of the samples,
        which the timer spaces evenly over the block."""
        return NOMINAL_S / statistics.fmean(self.samples)
