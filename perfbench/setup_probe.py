"""Print the CPU seconds a fresh process spends importing htapsim and building
one workload's cluster, tables and sessions, at the reference host speed.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

START = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports htapsim: part of set-up)

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
setup = time.process_time() - START

import hostspeed  # noqa: E402

print(setup / hostspeed.slowdown([hostspeed.sample() for _ in range(11)]))
