"""The entry point leaves no process behind, multiprocessing's resource tracker included."""

import multiprocessing
import os
import time
from multiprocessing import resource_tracker

from perfbench.run import _children, _end_children


def _sleep(seconds: float) -> None:
    time.sleep(seconds)


def test_end_children_stops_the_tracker_and_kills_a_stuck_child():
    ctx = multiprocessing.get_context("spawn")
    stuck = ctx.Process(target=_sleep, args=(60,), daemon=True)
    stuck.start()  # starting a spawned child also starts the tracker
    tracker = resource_tracker._resource_tracker._pid
    assert {stuck.pid, tracker} <= set(_children())

    start = time.monotonic()
    _end_children(timeout=0.5)

    assert time.monotonic() - start < 5
    assert _children() == []
    for pid in (stuck.pid, tracker):
        assert not os.path.exists(f"/proc/{pid}")
