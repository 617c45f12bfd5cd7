"""Command-line surface: verification runs, delta computation, audits.

Exit codes are a stable contract: 0 success, 1 claim or soundness
failure, 2 usage or input error.  Commands raise ValueError (or OSError)
for bad input, and ``main`` reports it as one ``error:`` line.  JSON
numbers are serialized at 17 significant digits so identical seeds and
flags give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .cubic import (MAX_N, gauss_curvature, mean_curvature,
                    point_data_from_json)
from .delta import (MAX_BATCH_ELEMENTS, MAX_GRID_RESOLUTION, DeltaTuple,
                    OptimizerOptions, delta_invariant, enumerate_tuples,
                    oracle_delta_dim3, oracle_delta_grid)
from .exceptions import Inadmissible
from .frames import scalar_tau
from .gallery import (example_names, example_point_data, run_example,
                      verify_with_mesh)
from .inequalities import (EQ_TOL, InequalityVariant, admissible_variants,
                           bound_report, coefficients, select_improved,
                           soundness_audit)

__all__ = ["main"]

# Inclusive range of each numeric option, by argparse dest, and how the
# error names it.  ``main`` checks them before any command runs; NaN fails
# both comparisons, so it is refused too.  ``verify`` holds every sample's
# point data, report and mesh row at once, a few kB each, so 100 000
# samples stay within a few hundred MB (and take minutes, not hours).
LIMITS = {
    "samples": (1, 100_000, "in 1..100000"),
    "count": (1, math.inf, ">= 1"),
    "restarts": (1, math.inf, ">= 1"),
    "max_iters": (1, math.inf, ">= 1"),
    "grid_resolution": (1, MAX_GRID_RESOLUTION,
                        f"in 1..{MAX_GRID_RESOLUTION}"),
    "seed": (0, math.inf, ">= 0"),
    "eq_tol": (0.0, sys.float_info.max, "finite and >= 0"),
}


def _format_float(x: float) -> str:
    if not np.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _json(obj) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats."""
    import json as _j
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _j.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{_j.dumps(str(k))}: {_json(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _tuple_str(parts) -> str:
    return "+".join(str(p) for p in parts)


CSV_HEADER = "variant,tuple,n,c,delta,h2,rhs,slack,equality"


def _report_csv_row(d: dict) -> str:
    return ",".join([
        d["variant"], _tuple_str(d["tuple"]), str(d["n"]),
        _format_float(d["c"]), _format_float(d["delta"]),
        _format_float(d["h2"]), _format_float(d["rhs"]),
        _format_float(d["slack"]), str(d["equality"]).lower(),
    ])


def _parse_tuple(spec: str, n: int) -> DeltaTuple:
    try:
        parts = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    except ValueError as exc:
        raise Inadmissible(f"cannot parse tuple spec {spec!r}") from exc
    if not parts:
        raise Inadmissible(f"empty tuple spec {spec!r}")
    return DeltaTuple(n, parts)


def _parse_n_spec(spec: str) -> list[int]:
    """Dimensions of ``--n``: one n or a range lo..hi, inside 3..MAX_N."""
    try:
        bounds = [int(tok) for tok in spec.split("..", 1)]
    except ValueError:
        raise ValueError(f"cannot parse --n {spec!r}") from None
    lo, hi = bounds[0], bounds[-1]
    if not 3 <= lo <= hi <= MAX_N:
        raise ValueError(f"--n {spec!r} is not a dimension or an ascending "
                         f"range inside 3..{MAX_N}")
    return list(range(lo, hi + 1))


def _check_limits(args):
    for name, (low, high, bound) in LIMITS.items():
        value = getattr(args, name, None)
        if value is not None and not low <= value <= high:
            raise ValueError(f"--{name.replace('_', '-')} must be {bound}")


def _check_budget(count: int, n: int, restarts: int = 1):
    """Refuse a run of ``count`` samples at dimension n whose arrays exceed
    the element budget: the curvature stack, count * n**4, and with
    ``restarts`` the optimizer's count * restarts * n**4.  The error names
    only the factors above 1, the ones a user can lower."""
    size = count * restarts * n ** 4
    if size > MAX_BATCH_ELEMENTS:
        names = [name for name, value in (("count", count),
                                          ("restarts", restarts))
                 if value > 1]
        raise ValueError(f"{' * '.join(names + ['n**4'])} = {size} at "
                         f"n = {n} exceeds the budget of {MAX_BATCH_ELEMENTS} "
                         f"elements; lower "
                         f"{' or '.join('--' + name for name in names)}")


def _cmd_verify(args) -> int:
    if args.mesh_out:  # one pass for the claims and the mesh rows
        claims, (header, rows) = verify_with_mesh(
            args.example, samples=args.samples, seed=args.seed)
    else:
        claims = run_example(args.example, samples=args.samples,
                             seed=args.seed)
    all_ok = all(c.passed for c in claims)
    for c in claims:
        status = "pass" if c.passed else "FAIL"
        line = (f"[{status}] {args.example} {c.name}: "
                f"{c.worst:.6e} (tol {c.tol:g})")
        if c.note:
            line += f"  -- {c.note}"
        print(line)
    payload = {"example": args.example, "samples": args.samples,
               "seed": args.seed, "passed": all_ok,
               "claims": [c.to_dict() for c in claims]}
    if args.format == "json":
        text = _json(payload)
    else:
        lines = ["claim,worst,tol,passed"]
        lines += [f"{c.name},{_format_float(c.worst)},"
                  f"{_format_float(c.tol)},{str(c.passed).lower()}"
                  for c in claims]
        text = "\n".join(lines)
    if args.out:
        _emit(text, args.out)
    if args.mesh_out:
        lines = [",".join(header)]
        lines += [",".join(_format_float(v) for v in row) for row in rows]
        _emit("\n".join(lines), args.mesh_out)
    if not all_ok:
        failing = ", ".join(c.name for c in claims if not c.passed)
        print(f"FAILED claims: {failing}", file=sys.stderr)
        return 1
    return 0


def _cmd_delta(args) -> int:
    if bool(args.input) == bool(args.example):
        raise ValueError("pass exactly one of --input or --example")
    if args.input:
        with open(args.input) as fh:
            data = point_data_from_json(fh.read())
    else:
        data = example_point_data(args.example)
    tup = _parse_tuple(args.tuple_spec, data.n)
    variant = None
    if args.variant == "auto":
        try:
            variant = select_improved(tup)
        except Inadmissible:
            variant = InequalityVariant.OLD
    elif args.variant:
        variant = InequalityVariant(args.variant)
        coefficients(variant, tup)  # refuse an inadmissible pairing up front
    R = gauss_curvature(data)
    if not tup.hyperplane:
        _check_budget(1, data.n, args.restarts)
    opts = OptimizerOptions(restarts=args.restarts, max_iters=args.max_iters,
                            seed=args.seed)
    value, config, diag = delta_invariant(R, tup, opts)
    _, h2 = mean_curvature(data.h)

    payload = {
        "command": "delta",
        "n": data.n,
        "c": data.c,
        "tuple": list(tup.parts),
        "tau": scalar_tau(R),
        "delta": value,
        "h2": h2,
        "blocks": [list(b) for b in config.blocks],
        "frame": config.frame.tolist(),
        "diagnostics": diag.summary(),
    }
    print(f"delta{tup} = {value:.12g}   (tau = {scalar_tau(R):.12g}, "
          f"H^2 = {h2:.12g})")
    print(f"argmin blocks (frame columns): {payload['blocks']}")
    print(f"diagnostics: {diag.summary()}")
    if diag.unconverged:
        print("warning: optimizer budget exhausted without convergence; "
              "the value is a best-found bound", file=sys.stderr)

    if args.oracle:
        if data.n == 3:
            oracle = oracle_delta_dim3(R)
            print(f"dimension-3 oracle: {oracle:.12g} "
                  f"(difference {abs(oracle - value):.3e})")
            payload["oracle_dim3"] = oracle
        elif data.n == 4:
            oracle = oracle_delta_grid(R, tup, args.grid_resolution)
            print(f"grid oracle (resolution {args.grid_resolution}): "
                  f"{oracle:.12g}")
            payload["oracle_grid"] = oracle
        else:
            print("no oracle available for n > 4", file=sys.stderr)

    # the CSV row of a bare delta run, where no bound is evaluated
    row = {"variant": "none", "tuple": tup.parts, "n": data.n, "c": data.c,
           "delta": value, "h2": h2, "rhs": float("nan"),
           "slack": float("nan"), "equality": False}
    if variant is not None:
        rep = bound_report(data, variant, tup, value, args.eq_tol, diag)
        row = payload["report"] = rep.to_dict()
        print(f"{variant.value}: rhs = {rep.rhs:.12g}, "
              f"slack = {rep.slack:.12g}, equality = {rep.equality}")

    if args.out:
        if args.format == "json":
            _emit(_json(payload), args.out)
        else:
            _emit(CSV_HEADER + "\n" + _report_csv_row(row), args.out)
    return 0


def _cmd_audit(args) -> int:
    ns = _parse_n_spec(args.n_spec)
    variants = None
    if args.variants:
        variants = [InequalityVariant(v.strip())
                    for v in args.variants.split(",")]
    # the curvature stack is built at every n; restarts multiply it where
    # a selected variant bounds a tuple that runs the optimizer, as
    # soundness_audit picks its tuples
    _check_budget(args.count, max(ns))
    optimized = [n for n in ns for tup in enumerate_tuples(n)
                 if not tup.hyperplane
                 and any(variants is None or v in variants
                         for v in admissible_variants(tup))]
    if optimized:
        _check_budget(args.count, max(optimized), args.restarts)
    opts = OptimizerOptions(restarts=args.restarts, seed=args.seed)
    threshold = -1e-9
    worst = np.inf
    all_pairs = []
    all_results = []
    for n in ns:
        res = soundness_audit(n, args.count, args.seed, variants=variants,
                              opts=opts)
        all_results.append((n, res))
        for pair in res["pairs"]:
            pair["n"] = n
            all_pairs.append(pair)
            worst = min(worst, pair["min_slack_rel"])
            print(f"n={n} tuple=({_tuple_str(pair['tuple'])}) "
                  f"variant={pair['variant']:>9}: min relative slack = "
                  f"{pair['min_slack_rel']: .3e}"
                  + (f"  [{pair['unconverged']} unconverged]"
                     if pair["unconverged"] else ""))
    if not all_pairs:
        raise ValueError("no admissible (variant, tuple) pairs matched")
    ok = worst >= threshold
    print(f"minimum relative slack over all pairs: {worst:.3e} "
          f"({'OK' if ok else 'VIOLATION'})")
    if args.out:
        if args.format == "json":
            payload = {"command": "audit", "n": ns, "count": args.count,
                       "seed": args.seed, "min_slack_rel": worst,
                       "passed": ok, "pairs": all_pairs}
            _emit(_json(payload), args.out)
        else:
            # batch export: one row per (sample, variant, tuple)
            rows = ["sample," + CSV_HEADER]
            for n, res in all_results:
                for (parts, variant), slack in res["slacks"].items():
                    rhs = res["rhs"][(parts, variant)]
                    deltas = res["deltas"][parts]
                    h2 = res["h2"]
                    for s in range(len(slack)):
                        rows.append(
                            f"{s}," + _report_csv_row({
                                "variant": variant.value,
                                "tuple": parts, "n": n, "c": 0.0,
                                "delta": deltas[s], "h2": h2[s],
                                "rhs": rhs[s], "slack": slack[s],
                                "equality": bool(abs(slack[s]) <= EQ_TOL)}))
            _emit("\n".join(rows), args.out)
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of the process."""
    parser = argparse.ArgumentParser(
        prog="lagdelta",
        description="delta-invariants and sharp curvature bounds for "
                    "Lagrangian pointwise data")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a gallery example's claim suite")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument("example", help="one of: " + ", ".join(example_names()))
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--out", help="write the machine-readable report here")
    pv.add_argument("--mesh-out",
                    help="CSV of sampled chart/ambient points with tau, "
                         "H^2 and the example's bound slack")

    pd = sub.add_parser("delta", help="compute a delta-invariant")
    pd.set_defaults(run=_cmd_delta)
    pd.add_argument("--input", help="JSON file with {n, c, h} point data")
    pd.add_argument("--example", help="named example as the data source")
    pd.add_argument("--tuple", dest="tuple_spec", required=True,
                    help="comma-separated parts, e.g. 2,3")
    pd.add_argument("--variant",
                    choices=("old", "first", "oprea", "improved", "high-a",
                             "k1", "auto"))
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--restarts", type=int, default=32)
    pd.add_argument("--max-iters", type=int, default=1000)
    pd.add_argument("--eq-tol", type=float, default=EQ_TOL)
    pd.add_argument("--oracle", action="store_true",
                    help="cross-check against the n<=4 oracles")
    pd.add_argument("--grid-resolution", type=int, default=24)
    pd.add_argument("--format", choices=("json", "csv"), default="json")
    pd.add_argument("--out")

    pa = sub.add_parser("audit", help="soundness sweep on random data")
    pa.set_defaults(run=_cmd_audit)
    pa.add_argument("--n", dest="n_spec", required=True,
                    help="dimension or range, e.g. 4 or 3..6")
    pa.add_argument("--count", type=int, required=True)
    pa.add_argument("--seed", type=int, default=42)
    pa.add_argument("--variants",
                    help="comma-separated subset, e.g. old,improved")
    pa.add_argument("--restarts", type=int, default=6)
    pa.add_argument("--format", choices=("json", "csv"), default="json")
    pa.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_limits(args)
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
