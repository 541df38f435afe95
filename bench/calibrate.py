"""Host-speed calibration: a fixed pure-Python probe timed between points.

The benchmark's host is shared. Measured on a 2-vCPU container, its
speed for this simulator flips between normal and about 1.6x slower on
a scale of seconds, on both CPUs, with no steal time reported. Raw pass
times then spread by 10-20% from run to run, more than any useful bound.

The probe is a small job that uses no repository code, so it measures
the host, never the simulator. The worker times it, warm, before and
after every point and rescales the point's seconds to *reference
seconds*::

    ref_s = seconds * (REF_PROBE_S / mean(probe before, probe after)) ** ALPHA

The probe mixes a branchy allocation loop, method calls on records and
a walk over a table larger than the L2 cache; the slow mode slows those
by 2.1x, 2.0x and 1.4x. ALPHA is the simulator's sensitivity to the
host's state relative to the probe's: fitting log(pass seconds) against
log(probe speed) over 48 passes of three workloads in 30 runs gave
0.71, 0.65 and 0.76. Over those runs the spread of per-run pass times
(quartile distance over median) went from 6-28% measured to 4-5%.
"""

from __future__ import annotations

import gc
import time

#: The probe's median time on the reference machine (a 2-vCPU container
#: on a 2.0 GHz host, in its fast mode).
REF_PROBE_S = 0.0028

ALPHA = 0.7

TABLE_SIZE = 1 << 16


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link):
        self.key = key
        self.value = value
        self.link = link

    def bump(self, amount):
        self.value += amount
        return self.value & 15


def to_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, rescaled."""
    return seconds * (REF_PROBE_S / probe_s) ** ALPHA


class Probe:
    """The calibration job; holds the table it walks."""

    def __init__(self):
        self.table = [[i, 0] for i in range(TABLE_SIZE)]

    def seconds(self) -> float:
        """Time of one warm run of the job, with the collector off.

        The collector's cost grows with the simulator's live heap, and a
        cold run measures what the last point left in the caches; neither
        is the host's speed.
        """
        gc.disable()
        try:
            self._job()
            start = time.perf_counter()
            self._job()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def _job(self) -> int:
        total = 0
        link = None
        counts = {}
        for i in range(2000):
            link = _Cell(i & 127, i, link)
            counts[link.key] = counts.get(link.key, 0) + link.bump(i)
        while link is not None:
            total ^= link.value + link.bump(total & 3)
            link = link.link
        records = [_Cell(i, i * 2, None) for i in range(64)]
        for i in range(2000):
            total = _mix(total, i, records[i & 63])
        table = self.table
        x = 12345
        for _ in range(6000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            entry = table[x & (TABLE_SIZE - 1)]
            total += entry[0]
            entry[1] = total & 255
        return total


def _mix(total: int, i: int, record: _Cell) -> int:
    if i & 1:
        record.value += i
    else:
        record.key ^= i
    return (total + record.bump(i) * 3 - record.key) & 0xFFFFFF
