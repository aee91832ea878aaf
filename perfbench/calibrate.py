"""Host-speed calibration.

The benchmark host slows down and speeds up by tens of percent over seconds
without descheduling the process, so raw wall times do not repeat.  A fixed
calibration unit - dict updates, blake2b hashing, small numpy calls and
long list-to-array conversions, the kinds of work the program does - is
timed between the queries.  Every wall time is scaled by REF_UNIT_S over the
unit times measured around it, which reports it at the speed of a reference
host whose unit takes REF_UNIT_S.  This module never imports ``ouroboros``.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time
from typing import List, Sequence

import numpy as np

# Unit time of the reference host: a 2-core Intel Xeon VM with Python 3.11.7
# and numpy 2.4.6 in its slower periods (its faster ones take ~1.5 ms).
REF_UNIT_S = 0.0026
WINDOW_S = 1.0      # unit samples this close in time to a measurement scale it
MIN_SAMPLES = 3     # ... and at least this many of the nearest ones


_LONG_LIST = [i * 31 % 257 for i in range(4096)]


def calibration_unit() -> int:
    """A fixed mix of dict, hashing and numpy work; returns a checksum.

    The last part converts a 4096-int list to an array and hashes it, the
    shape of long-context work: without it the unit sped up by more than
    long-context queries did when the host sped up.
    """
    table: dict = {}
    for i in range(1500):
        key = (i * 7919 % 509, i % 7)
        table[key] = table.get(key, 0) + i
    data = np.arange(256, dtype=np.int64)
    digest = 0
    for i in range(40):
        h = hashlib.blake2b(data[: 64 + 4 * i].tobytes(), digest_size=8)
        digest ^= int.from_bytes(h.digest(), "big")
    vec = np.linspace(0.0, 1.0, 64)
    acc = 0
    for i in range(150):
        v = np.array(vec)
        v[i % 64] += 1.0
        acc += int(np.argmax(v))
    for _ in range(4):
        h = hashlib.blake2b(np.asarray(_LONG_LIST, dtype=np.int64).tobytes(), digest_size=8)
        digest ^= int.from_bytes(h.digest(), "big")
    return digest ^ acc ^ len(table)


class Calibrator:
    """Unit-time samples stamped with when they ran."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stamps: List[float] = []
        self.units: List[float] = []

    def sample(self) -> None:
        t0 = self.clock()
        calibration_unit()
        t1 = self.clock()
        self.stamps.append((t0 + t1) / 2)
        self.units.append(t1 - t0)

    def local_unit(self, t0: float, t1: float) -> float:
        """Median unit time of the samples near the interval [t0, t1]."""
        return local_unit(self.stamps, self.units, t0, t1)

    def normalise(self, raw_s: float, t0: float, t1: float) -> float:
        return normalise(raw_s, self.local_unit(t0, t1))


def local_unit(stamps: Sequence[float], units: Sequence[float],
               t0: float, t1: float, window: float = WINDOW_S,
               min_samples: int = MIN_SAMPLES) -> float:
    """Median of the unit samples stamped within ``window`` of [t0, t1].

    When fewer than ``min_samples`` fall inside, the ``min_samples`` samples
    nearest the interval are used instead.  ``stamps`` must be ascending.
    """
    if not units:
        raise ValueError("no calibration samples")
    lo = bisect.bisect_left(stamps, t0 - window)
    hi = bisect.bisect_right(stamps, t1 + window)
    if hi - lo < min_samples:
        mid = (t0 + t1) / 2
        near = sorted(range(len(stamps)), key=lambda i: abs(stamps[i] - mid))
        return statistics.median(units[i] for i in near[:min_samples])
    return statistics.median(units[lo:hi])


def normalise(raw_s: float, unit_s: float, ref_s: float = REF_UNIT_S) -> float:
    """A wall time at the reference host's speed: raw * ref / measured unit."""
    if unit_s <= 0:
        raise ValueError("unit time must be positive")
    return raw_s * ref_s / unit_s

