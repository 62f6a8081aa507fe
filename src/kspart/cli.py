"""Command line front end.

Each subcommand takes only the options its handler reads.

Exit codes: 0 success, 2 bad usage or invalid or unreadable input (a
missing file, a directory, bytes that are not UTF-8, malformed JSON), 3 a
checked bound or descent failed, 4 the request exceeds a capacity or
capability limit or runs out of memory.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from functools import cache

import numpy as np

from . import __version__
from .barrier import build_certificate
from .mixedchar import (MixedInstance, ensemble_instance,
                        expected_char_poly_bruteforce, mixed_char_poly)
from .policy import (DEFAULT_POLICY, CapabilityError, CapacityError,
                     DescentError, KsError, NumericPolicy, RootednessError,
                     ValidationError)
from .realpoly import largest_root, roots, shrunk_power_largest_root
from .serialize import (SCHEMA_ENSEMBLE, SCHEMA_INSTANCE, certificate_to_dict,
                        ensemble_from_dict, instance_from_dict,
                        instance_to_dict, partition_report_to_dict, read_json,
                        read_text, report_envelope, stats_to_dict, write_json)
from .weaver import (Graph, WeaverInstance, gen_diagonal, gen_from_graph,
                     gen_gaussian, normalize_isotropy,
                     random_partition_experiment, spectral_approx_check)
from .weaver import partition as run_partition

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_CAPACITY = 4


def _resolve_policy(args) -> NumericPolicy:
    if args.numeric_policy is None:
        return DEFAULT_POLICY
    return DEFAULT_POLICY.merged(read_json(args.numeric_policy))


def _open_csv(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _integer(least: int, kind: str):
    """An option type: a decimal integer no smaller than least.  --seed
    takes 0 and up, as numpy's generators do, and --threads 1 and up."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return int(text)
    return parse


# options that several subcommands share
SHARED = {
    "seed": dict(type=_integer(0, "non-negative"), default=0,
                 help="RNG seed, at least 0"),
    "numeric-policy": dict(metavar="FILE",
                           help="JSON file of tolerance overrides"),
}


def _options(sub, *shared, out_default="-"):
    """Add the named shared options, then --out."""
    for name in shared:
        sub.add_argument("--" + name, **SHARED[name])
    sub.add_argument("--out", default=out_default, metavar="FILE",
                     help="output path, - for stdout")


def cmd_gen(args) -> int:
    graph = None
    if args.kind == "diagonal":
        inst = gen_diagonal(args.n, args.delta)
    elif args.kind == "gaussian":
        inst = gen_gaussian(args.n, args.delta, seed=args.seed,
                            policy=_resolve_policy(args))
    else:
        policy = _resolve_policy(args)
        graph = Graph.from_edge_text(read_text(args.edges))
        inst, _ = gen_from_graph(graph, policy)
    write_json(instance_to_dict(inst, graph), args.out)
    return EXIT_OK


def cmd_partition(args) -> int:
    policy = _resolve_policy(args)
    t0 = time.perf_counter()
    inst, graph = instance_from_dict(read_json(args.infile))
    if args.repair_isotropy:
        inst = normalize_isotropy(inst, policy)
    rep = run_partition(inst, args.r, policy)
    payload = partition_report_to_dict(rep, with_trace=args.trace)
    if graph is not None:
        payload["spectral_check"] = _spectral_payload(graph, rep, policy)
    doc = report_envelope("partition", payload, seed=None, policy=policy,
                          wall_time_s=time.perf_counter() - t0)
    write_json(doc, args.out)
    return EXIT_OK if rep.within_bound else EXIT_BOUND


def _spectral_payload(graph: Graph, rep, policy: NumericPolicy) -> dict:
    """Per part: the part's edges at weight r against the whole graph.

    A part meeting the norm bound b satisfies x L_H x <= r b x L_G x, so
    kappa1 >= 1/(r b) whenever the part subgraph is connected.
    """
    r = rep.r
    sd = float(np.sqrt(rep.delta_measured))
    checks = []
    for k, part in enumerate(rep.parts):
        edges = tuple((graph.edges[i][0], graph.edges[i][1],
                       r * graph.edges[i][2]) for i in part)
        row: dict = {"part": k, "edge_count": len(edges)}
        try:
            k1, k2 = spectral_approx_check(graph, Graph(graph.n, edges), policy)
            row.update(connected=True, kappa1=k1, kappa2=k2)
        except ValidationError:
            row.update(connected=False)
        checks.append(row)
    return {
        "reference_window": [(1.0 - sd) ** 2, (1.0 + sd) ** 2],
        "kappa1_floor_from_bound": 1.0 / (r * rep.bound_general),
        "parts": checks,
    }


def cmd_mixed(args) -> int:
    policy = _resolve_policy(args)
    t0 = time.perf_counter()
    ens = ensemble_from_dict(read_json(args.infile), policy)
    coeffs = mixed_char_poly(ensemble_instance(ens, policy), policy)
    payload = {
        "degree": ens.dim,
        "coefficients": list(coeffs),
        "roots": list(roots(coeffs, policy=policy).expand()),
        "largest_root": largest_root(coeffs, policy=policy),
    }
    if args.oracle:
        oracle = expected_char_poly_bruteforce(ens, policy)
        payload["oracle"] = {
            "coefficients": list(oracle),
            "max_abs_deviation": float(np.max(np.abs(oracle - coeffs))),
        }
    doc = report_envelope("mixed", payload, seed=None, policy=policy,
                          wall_time_s=time.perf_counter() - t0)
    write_json(doc, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    policy = _resolve_policy(args)
    t0 = time.perf_counter()
    doc = read_json(args.infile)
    schema = doc.get("schema")
    if schema == SCHEMA_INSTANCE:
        inst, _ = instance_from_dict(doc)
        mi = ensemble_instance_from_vectors(inst, policy)
    elif schema == SCHEMA_ENSEMBLE:
        mi = ensemble_instance(ensemble_from_dict(doc, policy), policy)
    else:
        raise ValidationError(f"unrecognized schema {schema!r}")
    eps = args.epsilon
    cert = build_certificate(mi, epsilon=eps, policy=policy)
    out = report_envelope("certify", certificate_to_dict(cert), seed=args.seed,
                          policy=policy, wall_time_s=time.perf_counter() - t0)
    write_json(out, args.out)
    return EXIT_OK if cert.valid else EXIT_BOUND


def ensemble_instance_from_vectors(inst: WeaverInstance,
                                   policy: NumericPolicy = DEFAULT_POLICY):
    outers = np.einsum("mi,mj->mij", inst.vectors, inst.vectors.conj())
    return MixedInstance(inst.dim, tuple(outers), policy)


def cmd_chernoff(args) -> int:
    policy = _resolve_policy(args)
    t0 = time.perf_counter()
    inst, _ = instance_from_dict(read_json(args.infile))
    stats = random_partition_experiment(
        inst, r=args.r, trials=args.trials, seed=args.seed,
        threshold=args.threshold, policy=policy)
    fh, close = _open_csv(args.csv)
    try:
        w = csv.writer(fh)
        w.writerow(["trial", "max_part_norm", "success", "mono_free"])
        for t in range(stats.trials):
            mono = "" if stats.mono_free is None else int(stats.mono_free[t])
            w.writerow([t, f"{stats.max_norms[t]:.12g}",
                        int(stats.successes[t]), mono])
    finally:
        if close:
            fh.close()
    if args.out is not None:
        doc = report_envelope("experiment-chernoff", stats_to_dict(stats),
                              seed=args.seed, policy=policy,
                              wall_time_s=time.perf_counter() - t0)
        write_json(doc, args.out)
    return EXIT_OK


def cmd_laguerre(args) -> int:
    if args.n < 1 or not 0 < args.delta <= args.n:
        raise ValidationError("need n >= 1 and 0 < delta <= n")
    if not np.isfinite(args.margin):
        raise ValidationError("margin must be finite")
    applications = args.n / (2.0 * args.delta)
    if applications == float("inf"):
        raise ValidationError("delta is too small: n/(2 delta) overflows")
    applications = int(round(applications))
    top = shrunk_power_largest_root(args.n, applications, args.delta / args.n)
    # n/(2 delta) applications to x^n is a half-sample, so the edge positions
    # follow the square-root of twice the norm ceiling
    sd = float(np.sqrt(2.0 * args.delta))
    lo, hi = 0.5 * (1.0 - sd) ** 2, 0.5 * (1.0 + sd) ** 2
    eta = args.margin
    fh, close = _open_csv(args.csv)
    try:
        w = csv.writer(fh)
        w.writerow(["n", "delta", "largest_root", "interval_lo", "interval_hi",
                    "margin", "within"])
        w.writerow([args.n, f"{args.delta:.12g}", f"{top:.12g}",
                    f"{lo:.12g}", f"{hi:.12g}", f"{eta:.12g}",
                    int(lo - eta <= top <= hi + eta)])
    finally:
        if close:
            fh.close()
    return EXIT_OK if lo - eta <= top <= hi + eta else EXIT_BOUND


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once and shared by every ``main`` call.

    Each subcommand names its handler, which ``main`` looks up at call time,
    so a replaced ``cmd_*`` function takes effect.
    """
    ap = argparse.ArgumentParser(
        prog="kspart",
        description="Partition finite frames into spectrally small parts "
                    "via interlacing families of polynomials.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    gs = g.add_subparsers(dest="kind", required=True)
    gd = gs.add_parser("diagonal", help="1/delta copies of each scaled basis vector")
    gd.add_argument("--n", type=int, required=True)
    gd.add_argument("--delta", type=float, required=True)
    _options(gd)
    gg = gs.add_parser("gaussian", help="normalized random frame")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--delta", type=float, required=True)
    _options(gg, "seed", "numeric-policy")
    ge = gs.add_parser("graph", help="edge vectors of a connected graph")
    ge.add_argument("--edges", required=True, metavar="FILE",
                    help="edge list, one 'a b [weight]' per line, - for stdin")
    _options(ge, "numeric-policy")

    p = sub.add_parser("partition", help="descend to an r-partition")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--trace", action="store_true",
                   help="include the full descent trace in the report")
    p.add_argument("--repair-isotropy", action="store_true",
                   help="renormalize a slightly non-isotropic instance first")
    # the descent runs on one thread; --threads 1 stays accepted only until
    # the benchmark's partition workloads stop passing it
    p.add_argument("--threads", type=_integer(1, "positive"), default=1,
                   choices=[1], help="accepted for compatibility; only 1")
    _options(p, "numeric-policy")

    m = sub.add_parser("mixed", help="expected characteristic polynomial")
    m.add_argument("--in", dest="infile", required=True, metavar="FILE")
    m.add_argument("--oracle", action="store_true",
                   help="also enumerate outcomes and report the deviation")
    # the oracle runs on one thread; --threads stays accepted, with no
    # effect, only until the benchmark's mixed-oracle workload stops passing it
    m.add_argument("--threads", type=_integer(1, "positive"), default=1,
                   help="accepted for compatibility; no effect")
    _options(m, "numeric-policy")

    c = sub.add_parser("certify", help="barrier-induction certificate")
    c.add_argument("--in", dest="infile", required=True, metavar="FILE")
    c.add_argument("--epsilon", type=float, default=None)
    _options(c, "seed", "numeric-policy")

    e = sub.add_parser("experiment", help="numerical experiments")
    es = e.add_subparsers(dest="experiment", required=True)
    ec = es.add_parser("chernoff", help="random partitions of an instance")
    ec.add_argument("--in", dest="infile", required=True, metavar="FILE")
    ec.add_argument("--r", type=int, default=2)
    ec.add_argument("--trials", type=int, default=1000)
    ec.add_argument("--threshold", type=float, default=1.0)
    ec.add_argument("--csv", default="-", metavar="FILE",
                    help="per-trial rows, - for stdout")
    _options(ec, "seed", "numeric-policy", out_default=None)
    el = es.add_parser("laguerre",
                       help="largest root of the shrunk expected polynomial")
    el.add_argument("--n", type=int, required=True)
    el.add_argument("--delta", type=float, required=True)
    el.add_argument("--margin", type=float, default=0.05,
                    help="slack added to the comparison interval")
    el.add_argument("--csv", default="-", metavar="FILE")

    g.set_defaults(handler="cmd_gen")
    p.set_defaults(handler="cmd_partition")
    m.set_defaults(handler="cmd_mixed")
    c.set_defaults(handler="cmd_certify")
    ec.set_defaults(handler="cmd_chernoff")
    el.set_defaults(handler="cmd_laguerre")
    return ap


def _fail(err: BaseException, code: int) -> int:
    # a bare MemoryError has no message
    print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return globals()[args.handler](args)
    except (CapacityError, CapabilityError, MemoryError) as err:
        return _fail(err, EXIT_CAPACITY)
    except (DescentError, RootednessError) as err:
        return _fail(err, EXIT_BOUND)
    except (KsError, OSError) as err:
        return _fail(err, EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
