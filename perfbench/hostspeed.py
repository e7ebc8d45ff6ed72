"""How fast the host runs Python right now, sampled during a benchmark run.

The benchmark shares its host with other work.  On a shared 2-vCPU Intel
Xeon host, the same untraced tpcb-like pass took from 2.5 to 4.2 CPU seconds
within 40 minutes, in slow and fast spells that last minutes, longer than a
run.  No statistic over one run's passes can remove that.  So a fixed kernel that
does not touch htapsim is timed between advance windows, and each pass's
CPU times are divided by the kernel's slowdown against ``REFERENCE_S``: the
timings are CPU time at the reference speed, a host that runs one kernel
call in 1 ms of CPU time.  Both the raw and the scaled figures are printed.

The kernel creates no container objects, so it does not move the garbage
collector's schedule inside the program it is measured beside.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.001  # CPU seconds of one kernel call at the reference speed
_ROUNDS = 2000
_TABLE = {k: k for k in range(4096)}


class _Slot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


_SLOT = _Slot()


def kernel() -> int:
    """Dict reads and writes, attribute access and string formatting: the
    interpreter work the simulator's event loop is made of."""
    table, slot = _TABLE, _SLOT
    acc = 0
    for i in range(_ROUNDS):
        key = (i * 2654435761) & 4095
        value = table[key]
        table[key] = value ^ i
        slot.value = value
        acc += slot.value & 7
        if i & 15 == 0:
            acc += len(f"{i}|{value}")
    return acc


def sample() -> float:
    """CPU seconds of one kernel call."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference speed the host ran."""
    return statistics.median(samples) / REFERENCE_S

