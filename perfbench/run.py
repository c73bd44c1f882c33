"""Benchmark entry point.

    python3 perfbench/run.py --workload rank-web --seed 1 --seconds 20 --trace 0

Prints a provenance line, then — as the last line of standard output — one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.  Exits non-zero, printing no result, when the program under
test cannot be imported or a workload cannot run.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rank-web", "rank-store", "serve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminate(signum, frame) -> None:
    # Turn SIGTERM into SystemExit so every ``finally`` tears its processes down.
    raise SystemExit(128 + signum)


def _children() -> list[int]:
    """Pids of this process's live and unreaped children (from ``/proc``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while being listed
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _end_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Starting the first spawned child also starts ``multiprocessing``'s
    resource tracker, which exits only once every holder of its pipe has
    closed it, so it would outlive this process.  Close this end of the
    pipe, wait for the tracker and any other child, and kill whatever is
    still running after ``timeout``.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + timeout
    while pids := _children():
        expired = time.monotonic() >= deadline
        for pid in pids:
            try:
                if expired:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if expired else os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.01)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro  # noqa: F401 - fail fast, before any work, without the program
    from perfbench import common

    # Anything that reaches for a temp dir stays inside the checkout, and
    # spawned children inherit the setting.
    common.WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(common.WORK)
    signal.signal(signal.SIGTERM, _terminate)

    try:
        if args.workload == "serve":
            from perfbench import serve_workload

            serve_workload.run(args.seed, args.seconds, bool(args.trace))
        else:
            from perfbench import rank_workloads

            rank_workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _end_children()
    return 0


if __name__ == "__main__":
    sys.exit(main())
