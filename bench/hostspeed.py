"""Host speed gauge: a fixed reference computation, read between stretches
of measured work, so that timings can be stated at one reference speed.

The benchmark shares its cores with other machines' guests.  Their load
slows it by up to 1.7x, switching on and off within seconds, and a slow
spell often covers much of a run: ten runs of one seed read 160 to
270 ms for the same median table.  A fixed computation timed right
before and right after a stretch of work sees the same neighbour, so
:class:`ReferenceClock` scales every stretch by the speed the gauge
read on both sides of it.  Over two minutes of ``dense-pool`` tables,
the rate per 15 s window varied by 10% (coefficient of variation) in
wall time and by 3% at the reference speed.

The reference mixes the kinds of work the program does -- a dict and
heap graph search, integer arithmetic in the interpreter, and a numpy
gather and sort over an array larger than the core's cache -- in about
equal shares, because each kind slows by its own amount under the same
neighbour.  It runs with the collector off, so the program's heap never
shows up in its time, and only on the measuring thread between stretches
of work, never inside a timed interval.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import Sequence

import numpy as np

#: A reading at the reference speed: a quiet stretch of the 2-vCPU Xeon
#: host the benchmark was sized on.  Scaled timings read as wall time on
#: that host when it is quiet.
REFERENCE_S = 0.0025

#: The gauge is read once at least this much measured work has gathered
#: since the last reading (one reading costs about 2.5 ms).
READ_EVERY_S = 0.05

#: Readings taken before and after each set-up.
SETUP_READINGS = 20


class SpeedGauge:
    """The reference computation and its fixed inputs."""

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        nodes = 450
        self._graph = [
            [(rng.randrange(nodes), rng.random()) for _ in range(4)] for _ in range(nodes)
        ]
        gen = np.random.default_rng(seed)
        self._array = gen.random(1 << 20)
        self._index = gen.integers(0, self._array.size, 75_000)

    def _search(self) -> int:
        dist = {0: 0.0}
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._graph[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return len(dist)

    @staticmethod
    def _arithmetic() -> int:
        total = 0
        for i in range(9_000):
            total += i * i % 7
        return total

    def _gather_sort(self) -> float:
        picked = self._array[self._index]
        picked.sort()
        return float(picked[-1])

    def read(self) -> float:
        """Seconds one run of the reference computation took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._search()
            self._arithmetic()
            self._gather_sort()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()

    def burst(self, count: int) -> list[float]:
        return [self.read() for _ in range(count)]


def speed(readings: Sequence[float]) -> float:
    """Host speed over ``readings``: 1.0 at the reference speed, 0.5 when
    the gauge took twice as long on average.  A wall time times the speed
    is the time at the reference speed; a rate over it, the rate."""
    if not readings:
        raise ValueError("no gauge readings")
    return REFERENCE_S / statistics.fmean(readings)


class ReferenceClock:
    """Measured work in wall seconds and at the reference speed.

    :meth:`add` takes the wall seconds of work just finished, outside any
    timed interval.  Once :data:`READ_EVERY_S` of work has gathered the
    gauge is read, and that stretch is scaled by the speed of this
    reading and the one before it, taken on either side of the work.
    """

    def __init__(self, gauge: SpeedGauge, every_s: float = READ_EVERY_S) -> None:
        self.gauge = gauge
        self.every_s = every_s
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.readings = [gauge.read()]
        self._pending_s = 0.0

    def add(self, seconds: float) -> None:
        self.wall_s += seconds
        self._pending_s += seconds
        if self._pending_s >= self.every_s:
            self.settle()

    def settle(self) -> None:
        """Scale the work gathered since the last reading."""
        if self._pending_s <= 0.0:
            return
        reading = self.gauge.read()
        self.reference_s += self._pending_s * speed((self.readings[-1], reading))
        self.readings.append(reading)
        self._pending_s = 0.0

    @property
    def speed(self) -> float:
        """Mean host speed over the settled work."""
        settled = self.wall_s - self._pending_s
        return self.reference_s / settled if settled > 0 else 1.0
