"""kspart benchmark: closed-loop solves through ``kspart.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process issues each solve only after the previous one
returns.  A round solves every case of the workload once; rounds repeat for
about ``--seconds`` of wall time.  Every report is checked against its
oracle after the timed region, and repeated solves of one input must give
the same bytes once ``wall_time_s`` is removed.

End-to-end metrics (``--trace 0``, tracing off):

- ``solves_per_cal``: solve throughput in calibration units.  Each solve's
  wall time is divided by the time of a fixed calibration kernel run just
  before and after it; the rate is the number of cases over the sum of each
  case's median.  The uncalibrated solves per second is in the run record
  and on stderr.
- ``setup_s``: median over fresh interpreters of the time from spawn to
  exit for importing the program, writing the inputs and warming up.
- ``peak_rss_mb``: peak resident memory of this process after the solves.
- ``verified_share``: share of attempted solves that passed every check.
- ``bound_ratio``: mean over verified solves of the figure the workload
  promises to keep under a bound (see workloads.py).

With ``--trace 1`` rounds alternate between traced and untraced; per-layer
metrics are means per traced solve and the gap between the two kinds of
round is the tracing overhead.

The last line of stdout is one JSON object with the metrics.  A table with
sample counts goes to stderr, and the full run record (manifest, per-solve
times, report digests and, when traced, the self-time table and every span)
to ``.bench_run/records/``.  The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2 and
prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 5
WALL_LINE = re.compile(rb'^[ \t]*"wall_time_s": [^\n]*\n', re.M)

END_TO_END = {
    "solves_per_cal": "1/cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_share": "ratio",
    "bound_ratio": "ratio",
}

MODULES = ("cli", "serialize", "weaver", "interlace", "mixedchar", "linalg",
           "realpoly", "barrier", "parallel")

PER_LAYER = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "serialize.read_s": "s",
    "serialize.write_s": "s",
    "serialize.bytes_out": "bytes",
    "weaver.partition.calls": "count",
    "weaver.partition.self_s": "s",
    "weaver.spectral_check.s": "s",
    "interlace.descend.s": "s",
    "interlace.descend.self_s": "s",
    "interlace.nodes": "count",
    "interlace.levels": "count",
    "interlace.tie_level_share": "ratio",
    "mixedchar.cond_poly.calls": "count",
    "mixedchar.cond_poly.s": "s",
    "mixedchar.cond_poly.self_s": "s",
    "mixedchar.cond_poly.cache_hit_ratio": "ratio",
    "mixedchar.alt_terms": "count",
    "mixedchar.mixed_char_poly.s": "s",
    "mixedchar.bruteforce.s": "s",
    "mixedchar.bruteforce.self_s": "s",
    "mixedchar.bruteforce.outcomes": "count",
    "linalg.char_poly_stack.calls": "count",
    "linalg.char_poly_stack.matrices": "count",
    "linalg.char_poly_stack.s": "s",
    "linalg.char_poly_stack.gflop_computed": "GFLOP",
    "linalg.char_poly_stack.gflops": "GFLOP/s",
    "realpoly.largest_root.calls": "count",
    "realpoly.largest_root.s": "s",
    "realpoly.roots.calls": "count",
    "realpoly.roots.s": "s",
    "barrier.build_certificate.s": "s",
    "barrier.build_certificate.self_s": "s",
    "barrier.value_many.calls": "count",
    "barrier.value_many.s": "s",
    "barrier.dets": "count",
    "barrier.stack_mb_computed": "MB",
    "barrier.above_roots_probe.calls": "count",
    "barrier.above_roots_probe.s": "s",
    "parallel.ordered_map.tasks": "count",
    "parallel.ordered_map.s": "s",
    "parallel.cpu_per_wall": "ratio",
    "trace.overhead_share": "ratio",
    "trace.overlap_s": "s",
    **{f"self.{m}.s": "s" for m in MODULES},
}


@dataclass
class Solve:
    """One CLI call: its timing, exit code and report bytes, then the
    verdict of the checks."""

    index: int
    round: int
    case: str
    traced: bool
    seconds: float
    cpu_s: float
    code: int | None
    report: bytes | None
    error: str | None = None
    cal_s: float = 0.0
    digest: str | None = None
    ratio: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def digest(report: bytes) -> str:
    """SHA-256 of a report with its wall_time_s line removed."""
    return hashlib.sha256(WALL_LINE.sub(b"", report)).hexdigest()


def solve_once(cli, case, out: Path, index: int, round_no: int,
               traced: bool) -> Solve:
    """Time one CLI call and keep its exit code and report bytes."""
    argv = case.argv + ["--out", str(out)]
    if out.exists():
        out.unlink()
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash is a failed solve, not a harness failure
        code, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    report = out.read_bytes() if out.exists() else None
    return Solve(index, round_no, case.name, traced, seconds, cpu_s, code,
                 report, error)


class Calibration:
    """A fixed mix of interpreter, batched matmul and LAPACK work.

    On the 2-vCPU virtual machine this benchmark was tuned on, speed drifts
    by +-25% over tens of seconds, which no run length averages away.  Timing this kernel just before and after every solve
    and expressing solve time in calibration units cancels most of the
    drift.  With ``threads`` > 1 the numpy part runs on that many threads
    at once, matching a solve that uses that many cores.
    """

    def __init__(self, threads: int = 1):
        rng = np.random.default_rng(0)
        self.threads = threads
        self.small = (rng.standard_normal((1500, 6, 6))
                      + 1j * rng.standard_normal((1500, 6, 6)))
        self.square = (rng.standard_normal((1500, 8, 8))
                       + 1j * rng.standard_normal((1500, 8, 8)))
        self.table = {key: float(i) for i, key in
                      enumerate(itertools.combinations(range(16), 4))}

    def _numpy(self, _=None) -> None:
        m = self.small
        for _ in range(60):
            m = self.small @ (0.5 * m)
        for _ in range(16):
            np.linalg.det(self.square)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for rep in range(150):
            for key, value in self.table.items():
                total += value if (rep + key[0]) % 2 else -value
        if self.threads > 1:
            with ThreadPoolExecutor(self.threads) as pool:
                list(pool.map(self._numpy, range(self.threads)))
        else:
            self._numpy()
        return time.perf_counter() - start


def run_solves(cli, cases, workdir: Path, seconds: float, tracer=None,
               calibrate=None) -> list[Solve]:
    """Closed loop over rounds of every case for about ``seconds``.

    A round solves each case once; a round is not started when the mean
    round so far would carry the run past ``seconds``.  Each solve's
    calibration time is the mean of the calibrations just before and just
    after it.  With a tracer, even rounds are traced and odd rounds are
    not; at least two of each run.
    """
    calibrate = calibrate or Calibration()
    solves: list[Solve] = []
    least = 4 if tracer else 2
    out = workdir / "report.json"
    start = time.perf_counter()
    cal_before = calibrate()
    for round_no in itertools.count():
        elapsed = time.perf_counter() - start
        if round_no >= least and elapsed * (1 + 1 / round_no) > seconds:
            break
        traced = tracer is not None and round_no % 2 == 0
        saved = tracer.install() if traced else None
        try:
            for case in cases:
                if traced:
                    tracer.solve = len(solves)
                solve = solve_once(cli, case, out, len(solves), round_no,
                                   traced)
                cal_after = calibrate()
                solve.cal_s = (cal_before + cal_after) / 2
                solves.append(solve)
                cal_before = cal_after
        finally:
            if saved is not None:
                tracer.restore(saved)
    return solves


def verify(cases, solves: list[Solve]) -> None:
    """Run the oracle checks and the byte-determinism check on every solve."""
    checks = {c.name: c.check for c in cases}
    first: dict[str, str] = {}
    for s in solves:
        if s.error is not None:
            continue
        if s.code != 0:
            s.error = f"exit code {s.code}"
            continue
        if s.report is None:
            s.error = "no report written"
            continue
        s.digest = digest(s.report)
        try:
            s.ratio = checks[s.case](json.loads(s.report))
        except Exception as err:  # a malformed report fails its solve
            s.error = f"check failed: {type(err).__name__}: {err}"
            continue
        if first.setdefault(s.case, s.digest) != s.digest:
            s.error = "report differs from the first solve of this input"


def per_case_rate(solves: list[Solve], calibrated: bool = True) -> float:
    """Verified solves per unit time, from the median time of each case.

    A round of one solve per case takes the sum of the case medians and
    yields each case's verified share of a solve.  Time is in calibrations
    when ``calibrated``, else in seconds.
    """
    times: dict[str, list[float]] = {}
    verified: dict[str, list[bool]] = {}
    for s in solves:
        times.setdefault(s.case, []).append(
            s.seconds / s.cal_s if calibrated else s.seconds)
        verified.setdefault(s.case, []).append(not s.failed)
    return (sum(statistics.fmean(v) for v in verified.values())
            / sum(statistics.median(v) for v in times.values()))


def end_to_end(solves: list[Solve], setup_times: list[float],
               peak_rss_mb: float):
    """Metric values and sample counts, tracing off."""
    ok = [s for s in solves if not s.failed]
    plain = [s for s in solves if not s.traced]
    values = {
        "solves_per_cal": per_case_rate(plain),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "verified_share": len(ok) / len(solves),
        "bound_ratio": statistics.fmean(s.ratio for s in ok) if ok else None,
    }
    samples = {"solves_per_cal": len(plain), "setup_s": len(setup_times),
               "peak_rss_mb": 1, "verified_share": len(solves),
               "bound_ratio": len(ok)}
    return values, samples


def per_layer(solves: list[Solve], spans) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced solve, and the module table."""
    from tracer import aggregate
    from workloads import tie_levels

    traced = [s for s in solves if s.traced]
    n = len(traced)
    agg = aggregate(spans)
    names = agg["names"]

    def get(name: str, key: str = "s") -> float:
        return names.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    levels = ties = 0
    for s in traced:
        if s.report is not None and s.code == 0:
            doc = json.loads(s.report)
            trace = doc["payload"].get("trace")
            if trace is not None:
                levels += len(trace["steps"])
                ties += tie_levels(trace)
    untraced_rate = per_case_rate([s for s in solves if not s.traced])
    traced_rate = per_case_rate(traced)
    cond = names.get("mixedchar.cond_poly", {})
    expansions = get("mixedchar.cond_poly", "expansions") + get(
        "mixedchar.mixed_char_poly", "expansions")
    totals = {
        "cli.main.s": get("cli.main"),
        "cli.self_s": agg["modules"].get("cli", 0.0),
        "serialize.read_s": sum(get(f"serialize.{f}") for f in (
            "read_json", "instance_from_dict", "ensemble_from_dict")),
        "serialize.write_s": sum(get(f"serialize.{f}") for f in (
            "partition_report_to_dict", "certificate_to_dict",
            "report_envelope", "write_json")),
        "serialize.bytes_out": sum(len(s.report or b"") for s in traced),
        "weaver.partition.calls": get("weaver.partition", "calls"),
        "weaver.partition.self_s": get("weaver.partition", "self_s"),
        "weaver.spectral_check.s": get("weaver.spectral_check"),
        "interlace.descend.s": get("interlace.descend"),
        "interlace.descend.self_s": get("interlace.descend", "self_s"),
        "interlace.nodes": cond.get("calls", 0.0),
        "interlace.levels": levels,
        "mixedchar.cond_poly.calls": cond.get("calls", 0.0),
        "mixedchar.cond_poly.s": cond.get("s", 0.0),
        "mixedchar.cond_poly.self_s": cond.get("self_s", 0.0),
        "mixedchar.mixed_char_poly.s": get("mixedchar.mixed_char_poly"),
        "mixedchar.bruteforce.s": get("mixedchar.bruteforce"),
        "mixedchar.bruteforce.self_s": get("mixedchar.bruteforce", "self_s"),
        "mixedchar.bruteforce.outcomes": get("mixedchar.bruteforce",
                                             "outcomes"),
        "linalg.char_poly_stack.calls": get("linalg.char_poly_stack", "calls"),
        "linalg.char_poly_stack.matrices": get("linalg.char_poly_stack",
                                               "matrices"),
        "linalg.char_poly_stack.s": get("linalg.char_poly_stack"),
        "linalg.char_poly_stack.gflop_computed": get(
            "linalg.char_poly_stack", "gflop"),
        "realpoly.largest_root.calls": get("realpoly.largest_root", "calls"),
        "realpoly.largest_root.s": get("realpoly.largest_root"),
        "realpoly.roots.calls": get("realpoly.roots", "calls"),
        "realpoly.roots.s": get("realpoly.roots"),
        "barrier.build_certificate.s": get("barrier.build_certificate"),
        "barrier.build_certificate.self_s": get("barrier.build_certificate",
                                                "self_s"),
        "barrier.value_many.calls": get("barrier.value_many", "calls"),
        "barrier.value_many.s": get("barrier.value_many"),
        "barrier.dets": get("barrier.value_many", "dets"),
        "barrier.above_roots_probe.calls": get("barrier.above_roots_probe",
                                               "calls"),
        "barrier.above_roots_probe.s": get("barrier.above_roots_probe"),
        "parallel.ordered_map.tasks": get("parallel.ordered_map", "tasks"),
        "parallel.ordered_map.s": get("parallel.ordered_map"),
        "trace.overlap_s": agg["overlap_s"],
        **{f"self.{m}.s": agg["modules"].get(m, 0.0) for m in MODULES},
    }
    values = {k: v / n for k, v in totals.items()}
    values.update({
        "interlace.tie_level_share": ratio(ties, levels),
        "mixedchar.cond_poly.cache_hit_ratio": ratio(agg["cache_hits"],
                                                     cond.get("calls", 0.0)),
        "mixedchar.alt_terms": ratio(
            get("mixedchar.cond_poly", "alt_terms")
            + get("mixedchar.mixed_char_poly", "alt_terms"), expansions),
        "linalg.char_poly_stack.gflops": ratio(
            get("linalg.char_poly_stack", "gflop"),
            get("linalg.char_poly_stack")),
        "barrier.stack_mb_computed": get("barrier.value_many", "stack_mb"),
        "parallel.cpu_per_wall": ratio(sum(s.cpu_s for s in traced),
                                       sum(s.seconds for s in traced)),
        "trace.overhead_share": 1.0 - traced_rate / untraced_rate,
    })
    main_s = values["cli.main.s"]
    table = {
        "cli.main.s": main_s,
        "self_s": {m: values[f"self.{m}.s"] for m in MODULES},
        "self_share": {m: ratio(values[f"self.{m}.s"], main_s)
                       for m in MODULES},
        "worker_overlap_s": values["trace.overlap_s"],
        "unattributed_s": main_s + values["trace.overlap_s"]
        - sum(values[f"self.{m}.s"] for m in MODULES),
    }
    return {k: values[k] for k in PER_LAYER}, table


def prepare(cli, workload, seed: int, workdir: Path, tiny: bool):
    """Write the inputs and warm up on the tiny variant of the workload."""
    cases = workload.cases(seed, workdir, tiny)
    warm = workdir / "warm"
    warm.mkdir(exist_ok=True)
    for case in workload.cases(seed, warm, tiny=True):
        cli.main(case.argv + ["--out", str(warm / "report.json")])
    return cases


def measure_setup(args) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters that import the
    program, write the inputs and warm up.

    Each child prints the system-wide monotonic clock when it is ready to
    solve; the time from spawning it to that reading is its set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=RUN_DIR) as target:
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--setup-only", target] + ["--tiny"] * args.tiny,
                check=True, timeout=150, capture_output=True, text=True)
            ready = float(done.stdout.strip().splitlines()[-1])
            times.append(ready - start)
    return times


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def print_table(title: str, values: dict, units: dict,
                samples: dict) -> None:
    print(title, file=sys.stderr)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>12s} {units[name]:8s} n={samples[name]}",
              file=sys.stderr)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="write the inputs into DIR, warm up and exit "
                         "(used to time set-up in a fresh interpreter)")
    ap.add_argument("--tiny", action="store_true",
                    help="solve the tiny variant of the workload "
                         "(the benchmark's self-test)")
    return ap.parse_args(argv)


def use_source_tree() -> bool:
    """Put the checkout's src/ first on sys.path; False if it is missing."""
    if not (SRC / "kspart" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        print(f"error: no kspart sources at {SRC}", file=sys.stderr)
        return 2
    import workloads
    from kspart import cli

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        prepare(cli, workload, args.seed, Path(args.setup_only), args.tiny)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    RUN_DIR.mkdir(exist_ok=True)
    setup_times = [] if args.trace else measure_setup(args)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as tmp:
        workdir = Path(tmp)
        cases = prepare(cli, workload, args.seed, workdir, args.tiny)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        solves = run_solves(cli, cases, workdir, args.seconds, tracer,
                            Calibration(workload.threads))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verify(cases, solves)
    failed = [s for s in solves if s.failed]

    if args.trace:
        values, table = per_layer(solves, tracer.spans)
        units = PER_LAYER
        samples = dict.fromkeys(values, sum(s.traced for s in solves))
    else:
        values, samples = end_to_end(solves, setup_times, peak_rss_mb)
        units, table = END_TO_END, None
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "manifest": {"why": workload.why, "recipe": workload.recipe,
                     "machine": machine(),
                     "predictors": {c.name: c.predictors for c in cases}},
        "setup_s": setup_times,
        "solves_per_s": per_case_rate([s for s in solves if not s.traced],
                                      calibrated=False),
        "solves": [{"round": s.round, "case": s.case, "traced": s.traced,
                    "seconds": s.seconds, "cpu_s": s.cpu_s, "cal_s": s.cal_s,
                    "digest": s.digest, "error": s.error} for s in solves],
        "digests": {c.name: sorted({s.digest for s in solves
                                    if s.case == c.name and s.digest})
                    for c in cases},
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                    for k, v in values.items()},
        "self_time_table": table,
        "spans": [[sp.id, sp.parent, sp.name, sp.start, sp.end, sp.solve,
                   sp.work] for sp in tracer.spans] if tracer else None,
    }
    records = RUN_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print_table(f"{workload.name} seed {args.seed} "
                f"({'traced' if args.trace else 'untraced'}): "
                f"{len(solves)} solves, {len(failed)} failed", values, units,
                samples)
    for s in failed[:5]:
        print(f"  failed solve {s.index} ({s.case}): {s.error}",
              file=sys.stderr)
    print(f"  solves_per_s, uncalibrated: {record['solves_per_s']:.6g} 1/s",
          file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed, "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
