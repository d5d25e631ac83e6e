"""One cold start: import genfrac and run a workload's warm-up, then report.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints one
JSON line with the import time and the ``time.perf_counter()`` reading at
the end of the warm-up.  On Linux that clock is system-wide, so the
parent subtracts the reading it took just before starting this process
and gets the set-up time from interpreter start.
"""

import json
import sys
from time import perf_counter

import common

common.one_blas_thread()
t0 = perf_counter()
common.import_genfrac()
import_s = perf_counter() - t0

import workloads  # noqa: E402  (needs genfrac on sys.path)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), 0).setup()
print(json.dumps({"import_s": import_s, "ready": perf_counter()}))
