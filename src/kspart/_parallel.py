"""The seam the benchmark's tracer wraps around mapped work.

``ordered_map`` is a plain map in submission order.  Nothing runs on worker
threads any more: the descent's closing chunks, the random partition
experiment's trials and, once its traces stopped reducing one matrix at a
time, the brute-force mixed oracle's batched products ran no faster on two
threads than on one.  ``interlace`` and ``mixedchar`` still map their work
through it because the benchmark's tracer patches it there.
"""
from __future__ import annotations


def ordered_map(fn, items) -> list:
    """[fn(x) for x in items]."""
    return [fn(x) for x in items]
