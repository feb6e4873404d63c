"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared host the same pass over the same requests ran at anywhere from
about 170 to 320 requests/s within two minutes, with no change to the
program.  The kernel below (heap and dict work in the interpreter, small
numpy convolutions and searches, like a search's mix) runs ``REPEATS``
times spread evenly through each pass of a multi-pass workload, between
requests and off the pass's clock; the pass's times are scaled by
``REFERENCE_S / total kernel time in the pass``, which reports them at one
reference machine speed.  The kernel does not touch ``src/``, so a change to
the program moves the scaled numbers exactly as much as the raw ones.

Over 150 consecutive 300-request passes of ``churn-shorthaul``, calibrated
before and after each pass, the quartile spread (IQR / median) of the
median pass throughput over windows of 8-17 passes was 0.09-0.11 raw and
0.03-0.05 scaled.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

#: Kernel runs per calibration: about 50 ms in all, a few percent of a pass.
REPEATS = 6
#: Seconds one calibration took on the host the benchmark was defined on (a
#: 2-vCPU x86-64 VM at 2.1 GHz), so scaled numbers stay near raw ones there.
REFERENCE_S = 0.05

_RNG = np.random.default_rng(12345)
_ARRAYS = [np.sort(_RNG.random(int(n))) for n in _RNG.integers(8, 96, size=64)]
_KEYS = [(i * 7919) % 1009 for i in range(4000)]


def _kernel() -> float:
    heap: list = []
    table: dict = {}
    total = 0.0
    for position, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, position))
        table[key] = table.get(key, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    for a in _ARRAYS:
        for b in _ARRAYS[:6]:
            folded = np.cumsum(np.convolve(a, b)[: len(a)])
            total += float(folded[np.searchsorted(a, 0.5) % len(folded)])
    return total


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    started = perf_counter()
    _kernel()
    return perf_counter() - started


def calibration_s() -> float:
    """Seconds ``REPEATS`` runs of the kernel take now, back to back."""
    return sum(kernel_s() for _ in range(REPEATS))
