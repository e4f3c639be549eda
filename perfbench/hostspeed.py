"""The machine's current speed, probed next to every timed block.

On a shared virtual machine the same code runs at two or more speeds: a
fixed pure-Python loop takes about 1.2 ms in the machine's fast state and
about 1.65 ms in its slow state, the state changes every few seconds to
minutes, and each virtual CPU can be in either.  A run's wall times move
with it by as much as 1.5x, whatever the program does.

So the benchmark times this fixed loop (:func:`probe_ns`) next to each
block of timed work and reports times *at the reference speed*: a time
measured while the probe took ``p`` ns is scaled by
``REFERENCE_NS / p``.  The probe is independent of the program, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  The raw times are printed among each run's facts.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of the probe loop.
PROBE_LOOPS = 20_000
#: The probe's time in this machine's fast state (2-vCPU VM, Python 3.11).
#: Scaled times read as if every block ran at that speed.
REFERENCE_NS = 1_200_000


def _loop() -> int:
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i
    return s


def probe_ns(every_cpu: bool = False) -> float:
    """Time of the probe loop, in ns.  ``every_cpu``: run it once pinned to
    each CPU this process may use and return the mean (for work spread
    over several processes); otherwise run it where this process is."""
    clock = time.perf_counter_ns
    if not every_cpu:
        t0 = clock()
        _loop()
        return float(clock() - t0)
    cpus = sorted(os.sched_getaffinity(0))
    total = 0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = clock()
            _loop()
            total += clock() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    return total / len(cpus)


def scale(probes: list[float]) -> float:
    """Scale factor for a time measured among ``probes`` (ns): the
    reference over their median."""
    return REFERENCE_NS / statistics.median(probes)


def factors(n: int, marks: list[tuple[int, float]]) -> list[float]:
    """Scale factor for each of ``n`` timed items, from probes taken
    between them: ``marks`` holds ``(i, probe_ns)`` for a probe taken just
    before item ``i`` (``i == n``: after the last).  An item's factor is
    ``REFERENCE_NS`` over the probe time interpolated at the item."""
    import numpy as np

    at = np.array([i for i, _ in marks], dtype=float)
    val = np.array([p for _, p in marks], dtype=float)
    probed = np.interp(np.arange(n) + 0.5, at, val)
    return (REFERENCE_NS / probed).tolist()
