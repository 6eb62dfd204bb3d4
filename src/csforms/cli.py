"""Command-line front end for the verification suites.

Every subcommand emits a report whose records carry the identity under test,
the computed and expected values, the tolerance, and a pass flag.  Reports are
deterministic functions of the configuration: the JSON and CSV encodings
contain no timestamps, and repeated runs with one seed are byte-identical.
Wall time is printed only in the human-readable text format.

Each subcommand takes the output flags (--json or --csv, and --out) and only
the tuning flags it reads (seed, points, finite-difference step, quadrature
order, tolerance); any other flag is a usage error.

Exit codes: 0 all checks passed, 1 at least one failed or a numerical failure
(ArithmeticError), 2 usage error, 3 a numerically ambiguous integer
computation (degree rounding).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict

from . import __version__, checks, rationals
from .calculus import MAX_QUAD_NODES, MAX_QUAD_ORDER
from .liealg import algebra_from_tag
from .zoo import PrecisionError, bundle_names

SCHEMA_VERSION = 1


def _positive(kind, zero_ok: bool = False):
    """argparse type: a finite number of the given kind that is > 0 (>= 0
    with zero_ok)."""
    bound = ">= 0" if zero_ok else "> 0"

    def parse(text: str):
        v = kind(text)
        if not ((0 <= v if zero_ok else 0 < v) and v < float("inf")):
            raise argparse.ArgumentTypeError(f"must be a finite number {bound}, got {text}")
        return v

    parse.__name__ = kind.__name__
    return parse


_TUNING = {
    "seed": dict(type=_positive(int, zero_ok=True), default=0, help="seed for random sweeps (>= 0)"),
    "points": dict(type=_positive(int), default=100, help="random points per sweep (>= 1)"),
    "fd-step": dict(type=_positive(float), default=1e-4, help="finite-difference step (> 0)"),
    "quad-order": dict(
        type=_positive(int),
        default=None,
        help=f"override quadrature order (>= 1; at most {MAX_QUAD_ORDER} per axis and {MAX_QUAD_NODES} nodes per rule)",
    ),
    "tol": dict(
        type=_positive(float, zero_ok=True), default=None, help="re-judge every record at this tolerance (>= 0)"
    ),
}

_SWEEP = ("seed", "points", "fd-step", "tol")
_QUADRATURE = ("quad-order", "tol")


def _add_flags(p: argparse.ArgumentParser, *tuning: str) -> None:
    """The output flags, then the named entries of _TUNING."""
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as canonical JSON")
    fmt.add_argument("--csv", action="store_true", help="emit the report as CSV rows")
    p.add_argument("--out", type=str, default=None, help="write the report to a file")
    for name in tuning:
        p.add_argument(f"--{name}", **_TUNING[name])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csforms",
        description="verify transgression-form identities on concrete bundles",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact coefficient tables and residuals")
    p.add_argument("--k", type=int, required=True)
    _add_flags(p, "tol")

    p = sub.add_parser("algebra", help="dump a matrix Lie algebra basis")
    p.add_argument("--dump", type=str, required=True, metavar="TAG")
    _add_flags(p)

    p = sub.add_parser("identities", help="calculus and invariance property suite")
    _add_flags(p, "seed", "fd-step", "tol")

    p = sub.add_parser("heterotic-check", help="d PhiP = P(Omega) - P(Psi) residual sweep")
    p.add_argument("--bundle", type=str, required=True, help=f"one of {bundle_names()}")
    p.add_argument("--poly", type=str, default=None, help=f"{' | '.join(checks.POLY_NAMES)} (default per bundle)")
    _add_flags(p, *_SWEEP)

    p = sub.add_parser("gauss-bonnet", help="Euler-form integrals and cap identities")
    _add_flags(p, *_QUADRATURE)

    p = sub.add_parser("chern-number", help="c_1 integral of the degree-one line bundle")
    _add_flags(p, *_QUADRATURE)

    p = sub.add_parser("fiber-norm", help="fiber integrals of the transgression forms")
    p.add_argument("--bundle", type=str, default=None, help=f"restrict to one of {list(checks.FIBER_NORM_BUNDLES)}")
    p.add_argument("--k", type=_positive(int), default=None, help="also report the exact antidiagonal constant (>= 1)")
    _add_flags(p, *_QUADRATURE)

    p = sub.add_parser("pontryagin-split", help="P1 splitting and sum rule on the 4-sphere frames")
    _add_flags(p, *_SWEEP)

    p = sub.add_parser("obstruction", help="chain integral = index sum + boundary term")
    p.add_argument("--bundle", type=str, default="ut_s2")
    p.add_argument("--chain", type=str, default="cap:pi/3")
    p.add_argument("--section", type=str, default="height_gradient")
    _add_flags(p, *_QUADRATURE)

    p = sub.add_parser("degree", help="winding degrees of the quaternionic sections")
    _add_flags(p, "tol")

    p = sub.add_parser("suite-all", help="run every acceptance check in order")
    _add_flags(p, *_SWEEP)

    return ap


def _coeffs_payload(k: int) -> dict:
    table = rationals.build_table_by_recursion(k)
    residuals = [
        {"relation": r.relation, "i": r.i, "j": r.j, "num": r.residual.numerator, "den": r.residual.denominator}
        for r in rationals.verify_linear_relations(k)
    ]
    fc = rationals.fiber_constant(k)
    return {
        "k": k,
        "table": [
            {"i": i, "j": j, "num": v.numerator, "den": v.denominator}
            for (i, j), v in sorted(table.entries.items())
        ],
        "residuals": residuals,
        "fiber_constant": {"num": fc.numerator, "den": fc.denominator},
    }


def _run_records(args: argparse.Namespace) -> tuple[list[checks.CheckRecord], dict]:
    cmd = args.command
    cfg: dict = {"command": cmd}
    for key in ("seed", "fd_step", "points"):
        if key in args:
            cfg[key] = getattr(args, key)
    if getattr(args, "quad_order", None):
        cfg["quad_order"] = args.quad_order
    tol = getattr(args, "tol", None)
    recs: list[checks.CheckRecord]

    if cmd == "coeffs":
        cfg["k"] = args.k
        recs = checks.coefficient_checks(args.k)
        cfg["payload"] = _coeffs_payload(args.k)
    elif cmd == "algebra":
        alg = algebra_from_tag(args.dump)
        cfg["algebra"] = alg.tag
        cfg["payload"] = {
            "dim": alg.dim,
            "basis": [
                {"re": b.real.tolist(), "im": b.imag.tolist()} if alg.is_complex else {"re": b.tolist()}
                for b in alg.basis()
            ],
        }
        recs = []
    elif cmd == "identities":
        recs = checks.calculus_identity_checks(seed=args.seed, fd_step=args.fd_step)
    elif cmd == "heterotic-check":
        cfg["bundle"] = args.bundle
        cfg["poly"] = args.poly
        recs = checks.heterotic_sweep(args.bundle, poly=args.poly, points=args.points, seed=args.seed, fd_step=args.fd_step)
    elif cmd == "gauss-bonnet":
        recs = checks.gauss_bonnet_checks(quad_order=args.quad_order)
    elif cmd == "chern-number":
        recs = checks.chern_number_checks(quad_order=args.quad_order)
    elif cmd == "fiber-norm":
        if args.bundle:
            cfg["bundle"] = args.bundle
        recs = checks.fiber_norm_checks(quad_order=args.quad_order, bundle=args.bundle)
        if args.k is not None:
            fc = rationals.fiber_constant(args.k)
            cfg["fiber_constant"] = {"k": args.k, "num": fc.numerator, "den": fc.denominator}
    elif cmd == "pontryagin-split":
        recs = checks.pontryagin_checks(points=args.points, seed=args.seed, fd_step=args.fd_step)
    elif cmd == "obstruction":
        cfg["bundle"], cfg["chain"], cfg["section"] = args.bundle, args.chain, args.section
        recs = checks.obstruction_checks(args.bundle, args.chain, args.section, quad_order=args.quad_order)
    elif cmd == "degree":
        recs = checks.degree_checks()
    elif cmd == "suite-all":
        recs = checks.suite_all(seed=args.seed, points=args.points, fd_step=args.fd_step)
    else:  # pragma: no cover
        raise ValueError(f"unhandled command {cmd}")

    if tol is not None:
        recs = [r.with_tolerance(tol) for r in recs]
        cfg["tol_override"] = tol
    return recs, cfg


def _report_dict(recs: list[checks.CheckRecord], cfg: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "config": cfg,
        "records": [asdict(r) for r in recs],
        "summary": {
            "total": len(recs),
            "passed": sum(r.passed for r in recs),
            "failed": sum(not r.passed for r in recs),
        },
    }


def _to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "anchor", "computed", "expected", "tolerance", "passed"])
    for r in report["records"]:
        w.writerow([r["name"], r["anchor"], repr(r["computed"]), repr(r["expected"]), repr(r["tolerance"]), r["passed"]])
    return buf.getvalue()


def _to_text(report: dict, elapsed: float) -> str:
    lines = []
    for r in report["records"]:
        status = "PASS" if r["passed"] else "FAIL"
        scale = f" scale={r['extra']['scale']:.3g}" if "scale" in r["extra"] else ""
        lines.append(
            f"[{status}] {r['name']}: computed={r['computed']:.6g} expected={r['expected']:.6g} "
            f"tol={r['tolerance']:.3g}{scale}  ({r['anchor']})"
        )
    fc = report["config"].get("fiber_constant")
    if fc:
        lines.append(f"fiber constant at k={fc['k']}: {fc['num']}/{fc['den']}")
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} checks passed, wall time {elapsed:.2f}s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.time()
    try:
        recs, cfg = _run_records(args)
    except PrecisionError as exc:
        print(f"numerical ambiguity: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _report_dict(recs, cfg)
    elapsed = time.time() - t0
    if args.json:
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    elif args.csv:
        text = _to_csv(report)
    else:
        text = _to_text(report, elapsed) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.command == "algebra":
        return 0
    return 0 if report["summary"]["failed"] == 0 else 1


def console_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
