"""Host-speed reference for timing on a shared machine.

On a host whose cores are shared with other tenants, the same plan() call can
take anywhere from 1x to 2x its idle time from one second to the next, and
the level drifts between runs minutes apart. Raw wall-clock medians of two
runs of the same code then differ by more than any useful regression bound.

The benchmark therefore also times a fixed reference kernel, interleaved with
the program's calls, and reports each timing scaled to a host on which the
kernel takes NOMINAL_MS:

    normalised = raw * NOMINAL_MS / (median kernel time around the timed interval)

The kernel is the same kind of work the program does (scalar Python float
arithmetic over small objects, small-array numpy calls), is independent of
the program's code, and runs outside every interval the program is timed
over. A change that makes the program twice as slow doubles the normalised
figure; a host that runs everything twice as slow leaves it (nearly)
unchanged. Raw wall-clock figures are printed beside the normalised ones as
diagnostics.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# About the kernel's time on a quiet 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4); normalised times read roughly as milliseconds on such a host.
NOMINAL_MS = 1.2
# A timed interval is scaled by the kernel samples taken inside it and the
# SIDE_SAMPLES nearest on either side: the host's speed changes within a
# second, so only nearby samples describe it.
SIDE_SAMPLES = 3

_STEPS = 120
_ROBOT_RADIUS = 0.35


class _Disk:
    __slots__ = ("x", "y", "vx", "vy", "r")

    def __init__(self, x, y, vx, vy, r):
        self.x, self.y, self.vx, self.vy, self.r = x, y, vx, vy, r


_DISKS = [_Disk(math.cos(k), math.sin(k), 0.3 * k - 0.6, 0.2, 0.3) for k in range(5)]
_CELLS = [[(i * 7 + j * 3) % 11 == 0 for i in range(40)] for j in range(40)]
_XS = np.linspace(0.0, 5.0, 50)


def _ttc(px, py, vx, vy, d):
    rx, ry = px - d.x, py - d.y
    wx, wy = vx - d.vx, vy - d.vy
    a = wx * wx + wy * wy
    b = 2.0 * (rx * wx + ry * wy)
    c = rx * rx + ry * ry - (d.r + _ROBOT_RADIUS) ** 2
    disc = b * b - 4.0 * a * c
    if a < 1e-12 or disc < 0.0:
        return math.inf
    t = (-b - math.sqrt(disc)) / (2.0 * a)
    return t if t >= 0.0 else math.inf


def _march(x, y, heading, steps):
    dx, dy = 0.1 * math.cos(heading), 0.1 * math.sin(heading)
    for k in range(steps):
        x += dx
        y += dy
        if _CELLS[int(y * 4.0) % 40][int(x * 4.0) % 40]:
            return k
    return steps


def kernel() -> float:
    """About 1 ms of the planner's kind of work on a small working set:
    scalar TTC queries and grid ray marches over small objects, and a few
    small-array numpy calls."""
    s = 0.0
    x = y = heading = 0.0
    for i in range(_STEPS):
        heading += 0.05 * math.sin(i * 0.3)
        x += 0.1 * math.cos(heading)
        y += 0.1 * math.sin(heading)
        vx, vy = math.cos(heading), math.sin(heading)
        s += min(_ttc(x, y, vx, vy, d) for d in _DISKS)
        s += _march(x, y, heading, 12)
        if i % 4 == 0:
            s += float(np.minimum(np.hypot(_XS - x, y), 1.0).min())
    return s


class HostClock:
    """Kernel timings in time order, and the scale they give an interval."""

    def __init__(self) -> None:
        self.mid: list[float] = []
        self.ms: list[float] = []

    def sample(self) -> None:
        """Time one kernel call, after an untimed one that brings its code and
        data back into cache: the program's own cache footprint, which a
        change may alter, then does not leak into the reference."""
        kernel()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.ms.append(1e3 * (t1 - t0))

    def samples(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_MS over the median kernel time around [t0, t1]."""
        if len(self.ms) < 2 * SIDE_SAMPLES:
            raise RuntimeError("too few host-clock samples to scale a timing")
        lo = max(0, bisect.bisect_left(self.mid, t0) - SIDE_SAMPLES)
        hi = bisect.bisect_right(self.mid, t1) + SIDE_SAMPLES
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ms)
