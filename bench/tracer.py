"""Spans around kspart's public functions, recorded from outside the package.

Each traced function is replaced, for the length of a traced round, at the
name its caller looks it up under (``kspart.cli.run_partition``,
``kspart.linalg.char_poly_stack``, ...).  A span records its name, start,
end, parent span and solve id, plus exact work counts derived from the
arguments and result.  Spans stay in memory until the run ends.

A span started on a worker thread of ``ordered_map`` takes the open
``ordered_map`` span as its parent.  A span's self time is its duration
minus the union of its children's intervals, so the module self times of a
solve add up to the ``cli.main`` span plus the time worker threads overlap.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import alt_terms

@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    solve: int | None
    work: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _expansion(m: int, dim: int) -> dict:
    return {"alt_terms": alt_terms(m, dim), "expansions": 1}


def _cond_poly_work(args, kwargs, result) -> dict:
    e = args[0]
    return _expansion(len(e.vectors), e.dim)


def _mixed_work(args, kwargs, result) -> dict:
    return _expansion(len(args[0].matrices), args[0].dim)


def _stack_work(args, kwargs, result) -> dict:
    n = result.size // result.shape[-1]
    dim = result.shape[-1] - 1
    # d iterations of a complex d x d matmul: 8 d^3 real flops each
    return {"matrices": n, "gflop": 8.0 * dim ** 4 * n / 1e9}


def _value_many_work(args, kwargs, result) -> dict:
    ev = args[0]
    dets = len(result) * 2 ** len(ev.applied)
    return {"dets": dets, "stack_mb": dets * ev.dim ** 2 * 16 / 1e6}


# (module, attribute, span name, work counter, opens worker threads)
TARGETS = (
    ("kspart.cli", "main", "cli.main", None, False),
    ("kspart.cli", "read_json", "serialize.read_json", None, False),
    ("kspart.cli", "instance_from_dict", "serialize.instance_from_dict",
     None, False),
    ("kspart.cli", "ensemble_from_dict", "serialize.ensemble_from_dict",
     None, False),
    ("kspart.cli", "partition_report_to_dict",
     "serialize.partition_report_to_dict", None, False),
    ("kspart.cli", "certificate_to_dict", "serialize.certificate_to_dict",
     None, False),
    ("kspart.cli", "report_envelope", "serialize.report_envelope", None, False),
    ("kspart.cli", "write_json", "serialize.write_json", None, False),
    ("kspart.cli", "run_partition", "weaver.partition", None, False),
    ("kspart.cli", "spectral_approx_check", "weaver.spectral_check",
     None, False),
    ("kspart.weaver", "descend", "interlace.descend", None, False),
    ("kspart.interlace", "conditional_expected_poly", "mixedchar.cond_poly",
     _cond_poly_work, False),
    ("kspart.cli", "mixed_char_poly", "mixedchar.mixed_char_poly",
     _mixed_work, False),
    ("kspart.cli", "ensemble_instance", "mixedchar.ensemble_instance",
     None, False),
    ("kspart.cli", "expected_char_poly_bruteforce", "mixedchar.bruteforce",
     lambda a, k, r: {"outcomes": a[0].leaf_count}, False),
    ("kspart.interlace", "ordered_map", "parallel.ordered_map",
     lambda a, k, r: {"tasks": len(r)}, True),
    ("kspart.mixedchar", "ordered_map", "parallel.ordered_map",
     lambda a, k, r: {"tasks": len(r)}, True),
    ("kspart.linalg", "char_poly_stack", "linalg.char_poly_stack",
     _stack_work, False),
    ("kspart.cli", "roots", "realpoly.roots", None, False),
    ("kspart.realpoly", "roots", "realpoly.roots", None, False),
    ("kspart.cli", "largest_root", "realpoly.largest_root", None, False),
    ("kspart.realpoly", "largest_root", "realpoly.largest_root", None, False),
    ("kspart.cli", "build_certificate", "barrier.build_certificate",
     None, False),
    ("kspart.barrier", "DeterminantEvaluator.value_many", "barrier.value_many",
     _value_many_work, False),
    ("kspart.barrier", "above_roots_probe", "barrier.above_roots_probe",
     None, False),
)


class Tracer:
    """Collects spans while installed; ``solve`` tags the spans of a solve."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None, fork: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fork
            sid = next(tracer._ids)
            stack.append(sid)
            outer_fork = tracer._fork
            if fork:
                tracer._fork = sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fork:
                    tracer._fork = outer_fork
            tracer.spans.append(Span(
                sid, parent, name, start, end, tracer.solve,
                work(args, kwargs, result) if work else {}))
            return result

        return traced

    def install(self):
        """Patch every target; returns the list of originals for restore."""
        saved = []
        for module, attr, name, work, fork in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, work, fork))
        return saved

    @staticmethod
    def restore(saved) -> None:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def aggregate(spans: list[Span]) -> dict:
    """Totals over the given spans: per span name the calls, time, self time
    and summed work counts; per module the self time; the worker overlap;
    and how many ``mixedchar.cond_poly`` calls made no ``char_poly_stack``
    call (cache hits)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    names: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    modules: dict[str, float] = defaultdict(float)
    overlap = 0.0
    cache_hits = 0
    for s in spans:
        kids = children.get(s.id, [])
        covered = _covered([(k.start, k.end) for k in kids])
        overlap += sum(k.end - k.start for k in kids) - covered
        own = s.end - s.start - covered
        row = names[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own
        for key, value in s.work.items():
            if key == "stack_mb":
                row[key] = max(row[key], value)
            else:
                row[key] += value
        modules[s.module] += own
        if s.name == "mixedchar.cond_poly" and not any(
                k.name == "linalg.char_poly_stack" for k in kids):
            cache_hits += 1
    return {"names": names, "modules": modules, "overlap_s": overlap,
            "cache_hits": cache_hits}
