"""Host speed probe for scaling time metrics.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other tenants: a fixed pure-Python loop takes from about 1.0 to
2.0 ms, in spells of seconds to minutes, and nsq ops slow by about the
same factor.  Such drift would swamp a 25% regression bound.  So a run
times a fixed probe between its ops and scales each op time to a host on
which the probe takes REF_S:

    scaled time = measured time * REF_S / median of the WINDOW probe
                  samples before the op and the WINDOW after it

The local median follows spells that last seconds.  A median over the
whole run does not: on a shared 2-vCPU Xeon VM, six ct-exact seeds
scaled by it spread ops_per_s about three times wider.

The probe does the kinds of work nsq ops do (a bytearray sieve, big-int
arithmetic, dict updates) and imports nothing from nsq, so no change to
nsq can move it.  It runs with the garbage collector off, so the heap
the ops leave behind does not slow it, and each sample is the best of
REPEATS back-to-back calls, so the first call warms the caches the op
before it evicted.
"""
from __future__ import annotations

import gc
import statistics
from time import perf_counter

REF_S = 1e-3  # probe time of the reference host
REPEATS = 3
WINDOW = 3


def probe_work() -> int:
    n = 4000
    member = bytearray(n)
    member[0] = 1
    for g in (7, 11, 13):
        for i in range(g, n):
            if member[i - g]:
                member[i] = 1
    x = 1
    for i in range(1, 300):
        x = x * (i + 12345) % ((1 << 521) - 1) + i
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0) + i
    return sum(member) + x % 7 + len(d)


class Probe:
    """Samples the probe once per `every` seconds of op time."""

    def __init__(self, every: float):
        self.every = every
        self.times: list[float] = []
        self.marks: list[int] = []  # per op, the samples taken before it
        self.since = every  # the first op is followed by a sample

    def after_op(self, dt: float) -> None:
        self.marks.append(len(self.times))
        self.since += dt
        if self.since >= self.every:
            self.since = 0.0
            self.sample()

    def sample(self) -> None:
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = perf_counter()
                probe_work()
                best = min(best, perf_counter() - t0)
        finally:
            gc.enable()
        self.times.append(best)

    def scales(self) -> list[float]:
        """Per op, in after_op order: factor from measured time to
        reference-host time."""
        return [REF_S / statistics.median(
                    self.times[max(0, i - WINDOW):i + WINDOW])
                for i in self.marks]
