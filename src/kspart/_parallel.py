"""Deterministic work distribution.

Results are always combined in submission order, so the output is identical
for any thread count; threads only change wall time.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def ordered_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def chunked(seq, size: int):
    """Consecutive slices of a sequence, taken as they are consumed, so a
    range yields ranges and nothing is copied up front."""
    for i in range(0, len(seq), size):
        yield seq[i:i + size]
