"""Environment fingerprint attached to every benchmark result."""

from __future__ import annotations

import ctypes
import platform
import sys
import threading
from pathlib import Path

import numpy as np
import scipy

from common import ROOT, nproc


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    libdirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".libs"]
    for libdir in libdirs:
        for lib_path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            try:
                lib = ctypes.CDLL(str(lib_path))
            except OSError:
                continue
            for prefix in ("scipy_", ""):
                for suffix in ("64_", ""):
                    fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                    if fn is not None:
                        fn.argtypes = []
                        fn.restype = ctypes.c_int
                        return int(fn())
    return None


def _git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {**_blas_info(), "threads": _openblas_threads()},
        "nproc": nproc(),
        "load_threads": threading.active_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }
