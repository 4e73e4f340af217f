"""Machine-speed probe for rescaling measured times to reference seconds.

The reference machine has two cores shared with other tenants, and its
speed changes by up to 30% for seconds at a time. The probe times a fixed
pure-Python loop that uses no package code, so a change to the program
cannot move it. An interval timed between two probes is multiplied by
``REFERENCE_S`` over their mean. This module imports nothing heavy, so a
set-up measurement can load it before its timer starts.
"""

from __future__ import annotations

import math
import time

# The probe's median time on the reference machine (2 shared cores,
# Python 3.11), measured between blocks of benchmark work.
REFERENCE_S = 1.15e-3


def _loop() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        key = (i, i & 7, i % 5)
        table[key[1]] = table.get(key[1], 0) + key[2]
        acc += len(key) + i * 31 % 17
    return acc


def probe_s() -> float:
    """Best of three timings of the probe loop, about 1 ms each."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor converting an interval timed between two probes to reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
