"""Process environment: BLAS pinning, the checkout's ``src``, memory."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

#: Root of the checkout this file lives in (``benchmarks/perf/harness/``).
CHECKOUT = Path(__file__).resolve().parents[3]
PERF_DIR = CHECKOUT / "benchmarks" / "perf"

_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def pin_blas_threads() -> None:
    """One BLAS thread, so a 2-core shared box measures the program and
    not the scheduler.  Only effective before ``numpy`` is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads() must run before numpy is imported")
    for name in _BLAS_THREAD_VARS:
        os.environ[name] = "1"


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    A ``repro`` installed elsewhere would silently benchmark other code,
    so a missing or foreign package is an error, not a fallback.
    """
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    found = Path(repro.__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"benchmark: repro resolved to {found}, not {src}")


def load_declaration() -> Dict[str, object]:
    """``BENCHMARK.json``: the one list of workloads, metric names, units
    and bounds."""
    with open(CHECKOUT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def rss_mb() -> float:
    """Resident set size of this process (``VmRSS``), in MiB.

    Freed heap is handed back to the system first (glibc ``malloc_trim``),
    so the figure is what the process holds, not what input generation
    or a cold reference cache once needed.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: report the untrimmed figure
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def environment() -> Dict[str, object]:
    """What a baseline file records about the machine and the code."""
    import numpy as np

    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError):
        pass
    commit = "unknown"
    if (CHECKOUT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=CHECKOUT, capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,  # run.py pins every run, whatever this process has
        "commit": commit,
    }
