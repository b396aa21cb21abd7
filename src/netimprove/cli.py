"""Command-line front end.

Subcommands: solve, equilibrium, sweep, gadget, verify.  Reports go to
stdout as a single JSON object (deterministic for fixed inputs and seeds;
wall time is logged to stderr so stdout stays byte-stable).  Exit codes:
0 success, 2 invalid input, 3 algorithm not applicable to the instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from .core import (
    Allocation,
    Instance,
    instance_to_json,
    parse_allocation,
    parse_instance,
    read_json,
)
from .copt import solve_copt
from .equilibrium import dipole_links, solve_equilibrium
from .errors import InapplicableError, NetimproveError, ValidationError
from .fptas import solve_fptas
from .gadgets import build_2ddp_instance, build_partition_instance
from .oracle import GridSpec, grid_search, sweep_segment
from .parallelpaths import best_single_edge_allocation, solve_parallel_paths
from .verify import run_suites

ALGORITHMS = ("copt", "parallel-links", "parallel-paths", "fptas", "oracle")


def _read(path: str) -> bytes:
    """The file's bytes, which ``read_json`` decodes."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _digest(inst: Instance) -> str:
    return hashlib.sha256(instance_to_json(inst).encode()).hexdigest()[:16]


def _emit(doc: dict, started: float) -> None:
    try:  # inf and nan are not JSON
        print(json.dumps(doc, sort_keys=True, allow_nan=False))
    except ValueError as exc:
        raise ValidationError("a delay is out of floating-point range") from exc
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)


def cmd_solve(args) -> int:
    started = time.perf_counter()
    inst = parse_instance(_read(args.instance))
    params: dict = {"tol": args.tol}
    certificate: dict = {}
    if args.alg == "copt":
        res = solve_copt(inst, tol=args.tol)
        alloc = res.allocation
        eq = solve_equilibrium(inst, alloc, tol=args.tol)
        delay = eq.average_delay
        certificate = res.to_json_dict()
    elif args.alg == "parallel-links":
        links = dipole_links(inst)
        if links is None:
            raise InapplicableError("instance is not a dipole")
        pick = best_single_edge_allocation(links, inst.budget,
                                           inst.commodities[0].demand)
        alloc, delay = pick.allocation, pick.delay
        certificate = {"edge": pick.edge_id}
    elif args.alg == "parallel-paths":
        res = solve_parallel_paths(inst, tol=args.tol)
        alloc, delay = res.allocation, res.delay
        certificate = {"used_paths": res.used_paths}
    elif args.alg == "fptas":
        res = solve_fptas(inst, args.eps, tol=args.tol, k_cap=args.kcap,
                          clamp=args.clamp_k)
        alloc, delay = res.allocation, res.equilibrium_delay
        certificate = res.to_json_dict()
    else:
        res = grid_search(inst, GridSpec(resolution=args.resolution),
                          tol=args.tol)
        alloc, delay = res.allocation, res.delay
        certificate = {"evaluations": res.evaluations,
                       "resolution": args.resolution}
        params["resolution"] = args.resolution
    if args.alg == "fptas":
        params["eps"] = args.eps
    _emit({
        "instance": _digest(inst),
        "algorithm": args.alg,
        "parameters": params,
        "allocation": {k: v for k, v in sorted(alloc.beta.items())},
        "L": delay,
        "certificate": certificate,
    }, started)
    return 0


def cmd_equilibrium(args) -> int:
    started = time.perf_counter()
    inst = parse_instance(_read(args.instance))
    alloc = (parse_allocation(_read(args.beta)) if args.beta
             else Allocation())
    res = solve_equilibrium(inst, alloc, tol=args.tol)
    _emit(res.to_json_dict(), started)
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    inst = parse_instance(_read(args.instance))
    rows = sweep_segment(inst, parse_allocation(_read(args.beta_from)),
                         parse_allocation(_read(args.beta_to)), args.steps,
                         tol=args.tol)
    csv = "lambda,L\n" + "".join(f"{lam:.10g},{val:.12g}\n"
                                 for lam, val in rows)
    if args.csv:
        _write(args.csv, csv)
        _emit({"points": len(rows), "csv": args.csv}, started)
    else:
        sys.stdout.write(csv)
        print(f"wall_time_s={time.perf_counter() - started:.3f}",
              file=sys.stderr)
    return 0


def cmd_gadget(args) -> int:
    started = time.perf_counter()
    if args.kind == "partition":
        try:
            values = [float(v) for v in args.values.split(",") if v]
        except ValueError as exc:
            raise ValidationError(f"item values must be numbers: {exc}") from exc
        gadget = build_partition_instance(values)
        doc = instance_to_json(gadget.instance, indent=2)
        sidecar = {"target": gadget.target, "applicable": gadget.applicable}
        if args.out:
            _write(args.out, doc)
            _write(args.out + ".target.json", json.dumps(sidecar))
            _emit({"instance_file": args.out, **sidecar}, started)
        else:
            print(doc)
            print(f"target={gadget.target!r} applicable={gadget.applicable}",
                  file=sys.stderr)
    else:
        # The inner graph: nodes, [tail, head] edges and the four terminals.
        inst = read_json(_read(args.graph), lambda doc: build_2ddp_instance(
            doc["nodes"], [(u, v) for u, v in doc["edges"]],
            *(doc[t] for t in ("s1", "s2", "t1", "t2")),
            big_budget=args.budget))
        out = instance_to_json(inst, indent=2)
        if args.out:
            _write(args.out, out)
            _emit({"instance_file": args.out}, started)
        else:
            print(out)
    return 0


def cmd_verify(args) -> int:
    names = [args.only] if args.only else None
    try:
        results = run_suites(names=names, seed=args.seed, cases=args.cases)
    except KeyError as exc:
        raise ValidationError(str(exc.args[0])) from exc
    failed = [r for r in results if not r.passed]
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name} (cases={r.cases}) {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} suites passed"
          + (f", seed={args.seed}" if failed else ""))
    return 1 if failed else 0


def positive_float(text: str) -> float:
    """Option type for tolerances: zero, negatives, inf and nan exit 2."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="netimprove",
        description="Budget allocation for equilibrium routing networks")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="allocate the instance's budget")
    solve.add_argument("--alg", choices=ALGORITHMS, required=True)
    solve.add_argument("--eps", type=positive_float, default=0.25,
                       help="target factor for the approximation scheme")
    solve.add_argument("--tol", type=positive_float, default=1e-8)
    solve.add_argument("--resolution", type=int, default=50,
                       help="grid steps per budget for the oracle")
    solve.add_argument("--kcap", type=int, default=5000,
                       help="largest admissible discretization grid")
    solve.add_argument("--clamp-k", action="store_true",
                       help="clamp the grid to the cap instead of failing")
    solve.add_argument("instance")
    solve.set_defaults(func=cmd_solve)

    eq = sub.add_parser("equilibrium", help="equilibrium under an allocation")
    eq.add_argument("--beta", help="allocation JSON file (default: zero)")
    eq.add_argument("--tol", type=positive_float, default=1e-8)
    eq.add_argument("instance")
    eq.set_defaults(func=cmd_equilibrium)

    sweep = sub.add_parser("sweep", help="delay along an allocation segment")
    sweep.add_argument("--from", dest="beta_from", required=True,
                       help="allocation JSON at lambda=0")
    sweep.add_argument("--to", dest="beta_to", required=True,
                       help="allocation JSON at lambda=1")
    sweep.add_argument("--steps", type=int, default=100)
    sweep.add_argument("--tol", type=positive_float, default=1e-8)
    sweep.add_argument("--csv", help="write CSV here instead of stdout")
    sweep.add_argument("instance")
    sweep.set_defaults(func=cmd_sweep)

    gadget = sub.add_parser("gadget", help="emit a hard test instance")
    gsub = gadget.add_subparsers(dest="kind", required=True)
    part = gsub.add_parser("partition", help="series of two-edge dipoles")
    part.add_argument("--values", required=True,
                      help="comma-separated item values, e.g. 3,5,2")
    part.add_argument("--out", help="write the instance JSON here")
    part.set_defaults(func=cmd_gadget)
    tddp = gsub.add_parser("tddp", help="disjoint-paths wrapper instance")
    tddp.add_argument("--graph", required=True,
                      help='inner graph JSON: {"nodes", "edges", "s1", ...}')
    tddp.add_argument("--budget", type=float, default=1e6)
    tddp.add_argument("--out", help="write the instance JSON here")
    tddp.set_defaults(func=cmd_gadget)

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=int, default=None,
                        help="override the per-suite case count")
    verify.add_argument("--only", help="run a single named suite")
    verify.set_defaults(func=cmd_verify)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InapplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except NetimproveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
