"""Summary statistics and the open-loop scan source.

The tail rule follows the benchmark doc: report the highest percentile that
still has at least ``TAIL_BEYOND`` samples beyond it, together with that
percentile and the sample count, instead of a fixed p99 the sample cannot
support.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

TAIL_BEYOND = 10

#: Seconds one ``burst`` typically takes on the reference machine (shared
#: 2-vCPU Xeon VM, Python 3.11, numpy 2.4).
REFERENCE_BURST_S = 0.055


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # share of samples at or below ``value``, in percent
    n: int


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest order statistic with at least ``beyond`` samples above it.

    With ``n`` sorted samples that is the ``(beyond + 1)``-th largest; it is
    the ``100 * (n - beyond) / n`` percentile. Fewer than ``beyond + 1``
    samples support no tail, which raises.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot show a tail with {beyond} beyond it")
    ordered = sorted(samples)
    return Tail(ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n)


class OpenLoopSource:
    """Yields items on a fixed schedule that does not slow when the consumer
    does: item ``i`` is due at ``start + i / rate_hz``.

    ``due[i]`` is the scheduled time and ``sent[i]`` the time the item was
    actually handed over; ``sent - due`` is how late the generator ran. The
    schedule starts at the first ``next()``. ``clock`` and ``sleep`` are
    injectable so the accounting can be tested with a fake clock.
    """

    def __init__(
        self,
        items: Sequence,
        rate_hz: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        self.items = items
        self.rate_hz = rate_hz
        self.clock = clock
        self.sleep = sleep
        self.due: list[float] = []
        self.sent: list[float] = []

    def __iter__(self) -> Iterator:
        start = self.clock()
        for i, item in enumerate(self.items):
            due = start + i / self.rate_hz
            delay = due - self.clock()
            if delay > 0:
                self.sleep(delay)
            self.due.append(due)
            self.sent.append(self.clock())
            yield item

    @property
    def lateness(self) -> list[float]:
        return [s - d for s, d in zip(self.sent, self.due)]


def burst() -> float:
    """Time one fixed burst of work of the kind the package spends its time
    in: scalar float arithmetic in the interpreter (the simulator's agent
    steps) and numpy calls on a few hundred points (ray casting, detection,
    tracking). The burst is the benchmark's own code and never changes with
    the package."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(120_000):
        x = i * 1e-3
        acc += math.hypot(x, 1.0) * 0.5 - math.atan2(x, 2.0)
    pts = np.linspace(0.0, 1.0, 720).reshape(360, 2)
    for i in range(1200):
        d = np.hypot(pts[:, 0] - i * 1e-3, pts[:, 1])
        acc += float(d.min()) + float(np.abs(np.diff(d)).sum())
    return time.perf_counter() - t0


class MachineSpeed:
    """How fast the machine ran over a run, against the reference machine.

    A shared host runs the same code up to 1.5x slower for spells of seconds
    to minutes. A burst of fixed work before the first timed call and after
    each one samples how slow the machine is; ``factor`` is
    ``REFERENCE_BURST_S`` over the mean burst time, and a wall time times
    ``factor`` is the time the reference machine would have taken. A change
    to the package moves the wall times and leaves the bursts alone; a busy
    neighbour slows both. ``measure`` is injectable for tests.
    """

    def __init__(self, measure: Callable[[], float] = burst, per_call: int = 1):
        self.measure = measure
        self.per_call = per_call
        self.bursts = [measure() for _ in range(per_call)]

    def timed(self, fn: Callable[[], object]) -> tuple[object, float]:
        """``(fn(), wall seconds)``, followed by ``per_call`` bursts."""
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.bursts.extend(self.measure() for _ in range(self.per_call))
        return result, wall

    @property
    def factor(self) -> float:
        return REFERENCE_BURST_S * len(self.bursts) / sum(self.bursts)
