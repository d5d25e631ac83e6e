"""Start-up shared by the benchmark entry point and its set-up probe.

Both scripts run from a checkout of the repository, with this directory
on ``sys.path``.  The package is imported from ``<checkout>/src`` and
nowhere else, so a checkout without sources fails instead of measuring
some other installed copy.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def one_blas_thread() -> None:
    """Run BLAS on the calling thread alone.  Must run before numpy is imported.

    A second BLAS thread made no operation faster (same operations per
    second with one and two threads on every workload, on 2 cores), but it
    spun on the other processor, doubling the CPU time, and made each
    operation wait on a second processor of a shared host.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_genfrac():
    """Import ``genfrac`` from the checkout's ``src``; exit with status 1 if it is not there."""
    if not (SRC / "genfrac" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'genfrac'}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("genfrac")
    if Path(module.__file__).resolve().parent != SRC / "genfrac":
        sys.exit(f"perfbench: imported genfrac from {module.__file__}, not from {SRC}")
    return module
