"""The fixed reference kernel every unit of work is read against.

A shared 2-vCPU VM slows down and speeds up by up to ~2x within
seconds while a process stays on-CPU (CPU time tracks wall time). A unit's raw seconds are therefore read against this kernel,
timed just before and just after the unit, in the spirit of SPEC's
reference ratios: a unit that took 0.50 s while the kernel ran at 1.25x
its nominal time counts as 0.50 / 1.25 = 0.40 normalised seconds.

The kernel mixes the three kinds of work the program does — dict and
tuple churn (MMU simulation, µpath enumeration), ``Fraction``
arithmetic (exact LPs, region support LPs) and a small numpy call
(sampling, statistics) — so the host's slow phases hit it as they hit
the program. Its working set (a ~4,000-entry dict, 64x64 matrices) is
large enough to feel the cache contention the program feels.

Do not edit this module. ``NOMINAL_SECONDS`` and the kernel body are
the baseline every recorded number is expressed in; changing either
rescales every normalised metric. The module imports nothing from
``repro``.
"""

import time
from fractions import Fraction

import numpy as np

#: One kernel run's time on the host the baseline was recorded on
#: (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, in its fast phase). A
#: normalised second is a second of work at that host's speed.
NOMINAL_SECONDS = 0.0100


def reference_kernel():
    """About 10 ms of fixed mixed work; returns a checksum."""
    table = {}
    for i in range(8000):
        key = (i % 61, (i * 7) % 17, i & 3)
        entry = table.get(key)
        if entry is None:
            table[key] = (i, key[0])
        else:
            table[key] = (entry[0] + i, entry[1] ^ key[1])
    check = sum(total for total, _ in table.values())
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i, i + 3) * Fraction(7, 2 * i + 1)
        if i % 16 == 0:
            check ^= acc.numerator & 0xFFFF
            acc = Fraction(0)
    matrix = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 7.0
    for _ in range(12):
        matrix = (matrix @ matrix.T) % 11.0
    return check + int(matrix.sum())


def time_reference():
    """Seconds one run of :func:`reference_kernel` takes right now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
