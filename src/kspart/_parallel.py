"""Deterministic work distribution.

Results are always combined in submission order, so the output is identical
for any thread count; threads only change wall time.
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


def chunked(seq, size: int):
    """Consecutive slices of a sequence, taken as they are consumed, so a
    range yields ranges and nothing is copied up front."""
    for i in range(0, len(seq), size):
        yield seq[i:i + size]
