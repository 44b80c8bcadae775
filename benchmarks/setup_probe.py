"""Child process behind the ``setup_s`` metric.

    python3 benchmarks/setup_probe.py <workload>

Imports ``hdcow``, builds the workload's inputs as the benchmark does
before its first timed call, and prints ``time.monotonic()``.  The
parent subtracts the time at which it started this interpreter.
"""

import sys
import time

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].build()
print(time.monotonic())
