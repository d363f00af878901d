"""Time one cold set-up of a workload in a fresh interpreter.

Reads a workload spec (JSON) on standard input and prints two numbers: the
seconds from before `import cosetcode` to the end of `workloads.setup`, and
the machine speed measured right after it by `calibrate.py`, in this process
because the two cores can run at different speeds.  `run.py` starts this
several times and reports the median of their products as `setup_s`.
"""

import json
import sys
import time

spec = json.load(sys.stdin)
start = time.perf_counter()
import workloads  # noqa: E402  (timed: set-up includes every import)

workloads.setup(spec)
elapsed = time.perf_counter() - start

from calibrate import Calibrator  # noqa: E402

cal = Calibrator("interpreter")
print(repr(elapsed), repr((cal.speed() + cal.speed()) / 2))
