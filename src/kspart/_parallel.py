"""Deterministic work distribution.

Results are always combined in submission order, so the output is identical
for any thread count; threads only change wall time.  Only the brute-force
mixed oracle maps its work over threads, whose outcome chunks are large
numpy stacks that release the GIL; the descent's closing chunks and the
random partition experiment's trials ran no faster on two threads, so they
run on one.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn, items, threads: int = 1) -> list:
    """[fn(x) for x in items] on at most ``threads`` worker threads, and
    never more than there are usable CPUs or items."""
    items = list(items)
    workers = min(threads, usable_cpus(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))
