"""Run every workload untraced and traced, then print the end-to-end metrics
with units and sample counts, the self-time table by module, and each
workload's manifest (recipe, reason, cost predictors, machine).

    python3 bench/summary.py [--seed N] [--seconds S] [--workload NAME ...]

Each run is a separate ``run.py`` process; the tables are read back from
the run records it writes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

MEASURED_PREDICTORS = ("interlace.tie_level_share", "interlace.levels",
                       "mixedchar.alt_terms", "mixedchar.bruteforce.outcomes",
                       "linalg.char_poly_stack.matrices", "barrier.dets")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], check=True, capture_output=True, timeout=600)
    path = run.RUN_DIR / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default all")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    plain = {w: run_once(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: run_once(w, args.seed, args.seconds, 1) for w in names}

    print(f"End-to-end metrics, tracing off (seed {args.seed}, "
          f"{args.seconds} s per run)")
    print(f"  {'workload':22s} {'metric':16s} {'value':>12s} {'unit':6s} n")
    for w in names:
        for name, m in plain[w]["metrics"].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {w:22s} {name:16s} {value:>12s} {m['unit']:6s} "
                  f"{m['samples']}")
        solves = plain[w]["solves"]
        failed = sum(s["error"] is not None for s in solves)
        print(f"  {w:22s} {'failed_share':16s} {failed / len(solves):12.6g} "
              f"{'ratio':6s} {len(solves)}")
        print(f"  {w:22s} {'solves_per_s':16s} "
              f"{plain[w]['solves_per_s']:12.6g} {'1/s':6s} {len(solves)}"
              "  (uncalibrated)")

    print("\nSelf time by module per traced solve (share of cli.main.s; "
          "worker threads can overlap)")
    modules = run.MODULES
    print(f"  {'workload':22s} " + " ".join(f"{m:>9s}" for m in modules)
          + f" {'overlap_s':>9s} {'unattr_s':>9s} {'main_s':>8s}"
          f" {'trace_ovh':>9s}")
    for w in names:
        table = traced[w]["self_time_table"]
        metrics = traced[w]["metrics"]
        print(f"  {w:22s} "
              + " ".join(f"{table['self_share'][m]:9.4f}" for m in modules)
              + f" {table['worker_overlap_s']:9.4f}"
              f" {table['unattributed_s']:9.2e} {table['cli.main.s']:8.4f}"
              f" {metrics['trace.overhead_share']['value']:9.4f}")

    print("\nManifest")
    for w in names:
        manifest = dict(traced[w]["manifest"])
        manifest["measured_per_solve"] = {
            k: traced[w]["metrics"][k]["value"] for k in MEASURED_PREDICTORS}
        manifest["digests"] = plain[w]["digests"]
        print(json.dumps({w: manifest}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
