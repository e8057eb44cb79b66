"""Small measurement helpers shared by the workload runners."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
import platform
import resource
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def labels_digest(labels) -> str:
    """SHA-256 of the labels as little-endian int64 — order-sensitive."""
    arr = np.ascontiguousarray(np.asarray(labels), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _provenance():
    # Reuse the kernel benchmark's provenance (commit, date, array
    # backend) so every benchmark record carries the same fields.
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.provenance(ROOT)


def metadata(workload: str, config: dict, seed: int, traced: bool) -> dict:
    """Run metadata stamped on every record."""
    return {
        **_provenance(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "config": config,
        "seed": seed,
        "traced": traced,
    }
