"""Helpers shared by the workloads: paths, /proc readings, statistics, output."""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parents[1]
#: Scratch space for generated inputs; every run makes its own subdirectory.
WORK = ROOT / ".perfbench_tmp"
#: Where traced runs write their spans when the run ends.
OUT = ROOT / ".perfbench_out"


def fresh_dir(prefix: str) -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


#: The read mix of every workload: (share, op, ids per request); 0 ids
#: means ``top_k`` with k = ``TOP_K``, 1 id a single-id read.
READ_MIX = (
    (0.70, "score", 100),
    (0.20, "percentile", 100),
    (0.08, "score", 1),
    (0.02, "top_k", 0),
)
TOP_K = 100


def read_schedule(rng: np.random.Generator, n: int, count: int) -> list[dict]:
    """``count`` requests of the read mix over ids ``[0, n)``."""
    shares = np.array([share for share, _, _ in READ_MIX])
    kinds = rng.choice(len(READ_MIX), size=count, p=shares / shares.sum())
    requests = []
    for kind in kinds:
        _, op, width = READ_MIX[kind]
        if width == 0:
            requests.append({"op": "top_k", "k": TOP_K})
        elif width == 1:
            requests.append({"op": op, "id": int(rng.integers(n))})
        else:
            requests.append({"op": op, "ids": rng.integers(n, size=width).tolist()})
    return requests


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


# ----------------------------------------------------------------------
# /proc readings (Linux)
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB.

    ``VmHWM`` belongs to the address space and is reset by ``exec``, so a
    spawned process reports only its own peak (``ru_maxrss`` would not).
    """
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_fingerprint() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def quantile(values, q: float) -> float:
    values = list(values)
    return float(np.quantile(values, q)) if values else 0.0


def per_window(pairs, statistic) -> list[float]:
    """``statistic`` of each window's values, from ``(window, value)`` pairs."""
    windows: dict = {}
    for window, value in pairs:
        windows.setdefault(window, []).append(value)
    return [statistic(values) for values in windows.values()]


def calm(latencies) -> float:
    """A run's latency from its least-contended windows: their tenth percentile.

    The shared host these runs were tuned on alternates every few seconds
    between a fast and a slow state.  Pooled over a run, a quantile jumps
    between the two states' values as their shares of the run cross it;
    the fast end of the windows reads the same in every run that spends
    more than a tenth of its time in the fast state.
    """
    return quantile(latencies, 0.1)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
    provenance: dict,
    spans=None,
    tag: str = "",
) -> None:
    """Print the provenance line, then the result as the last stdout line."""
    if spans is not None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{tag}.json", "w") as handle:
            json.dump([span.to_json() for span in spans], handle)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result, allow_nan=False), flush=True)
