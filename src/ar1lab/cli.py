"""Command-line interface.

Subcommands: poly, persist, verify, simulate, rates, volume, figure.
Exact rationals are always serialized as "num/den" next to a float
rendering; floats never feed back into exact computations.  Output goes to
stdout or to --out; a relative --out is resolved against $AR1LAB_OUT when
that variable is set.  All output is deterministic for a fixed command line
(seeds included), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from fractions import Fraction

from ar1lab import asymptotics as asym
from ar1lab import families as fam
from ar1lab import identities
from ar1lab import montecarlo as mc
from ar1lab import persistence as pers
from ar1lab.errors import DomainError, InvariantError
from ar1lab.exact.rational import format_rational, parse_rational


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("AR1LAB_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, out: str | None) -> None:
    target = _resolve_out(out)
    if target is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
            with open(target, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {target!r}: {exc.strerror or exc}") from None


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _rows_to_csv(fieldnames: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _format_table(fieldnames: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_dump(rows)
    return _rows_to_csv(fieldnames, rows)


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------


def _cmd_poly(args) -> int:
    if args.check_routes:
        disagreement = fam.route_disagreement(args.nmax)
        if disagreement is not None:
            raise InvariantError(disagreement)
    records = []
    family = args.family
    for n in range(1, args.nmax + 1):
        if family == "J":
            coeffs = fam.mallows_riordan(n).to_strings()
        elif family == "Jt":
            coeffs = fam.j_tilde(n).to_strings()
        elif family == "Jh":
            coeffs = fam.j_hat(n).to_strings()
        elif family == "C":
            coeffs = fam.c_polynomial(n).to_strings()
        elif family == "zigzag":
            coeffs = [str(fam.zigzag(n))]
        elif family == "tutte":
            coeffs = [p.to_strings() for p in fam.tutte_complete(n)]
        else:  # volume
            coeffs = fam.nested_volume(n).to_strings()
        records.append({"family": family, "n": n, "coefficients": coeffs})
    if args.scan_negative:
        witnesses = []
        for n in range(1, args.nmax + 1):
            for th in (Fraction(-3, 2), Fraction(-2), Fraction(-5, 2), Fraction(-3)):
                jv = fam.mallows_riordan(n)(th)
                dv = fam.mallows_riordan(n).derivative()(th)
                if jv < 0:
                    witnesses.append({"kind": "value", "n": n, "theta": format_rational(th),
                                      "value": format_rational(jv)})
                if dv < 0:
                    witnesses.append({"kind": "derivative", "n": n, "theta": format_rational(th),
                                      "value": format_rational(dv)})
        _emit(_json_dump({"table": records, "negative_witnesses": witnesses}), args.out)
        return 0
    if args.format == "json":
        _emit(_json_dump(records), args.out)
    else:
        rows = [
            {"family": r["family"], "n": r["n"], "coefficients": json.dumps(r["coefficients"])}
            for r in records
        ]
        _emit(_rows_to_csv(["family", "n", "coefficients"], rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# persist
# ---------------------------------------------------------------------------


def _cmd_persist(args) -> int:
    thetas = [parse_rational(t) for t in args.theta] or [Fraction(0)]
    a, b = parse_rational(args.a), parse_rational(args.b)
    rows = []
    for th in thetas:
        chain = pers.persistence_prefix(args.nmax, th, a, b)
        for n in range(args.nmax + 1):
            query = pers.PersistenceQuery(n, th, a, b)
            rows.append(
                {
                    "n": n,
                    "theta": format_rational(th),
                    "p_exact": format_rational(chain[n]),
                    "p_float": repr(float(chain[n])),
                    "region_tag": pers.classify(query).value,
                }
            )
    _emit(_format_table(["n", "theta", "p_exact", "p_float", "region_tag"], rows, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    results = identities.run_all(args.nmax)
    lines = []
    failed = []
    for r in results:
        status = "EXACT PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:26s} {status:10s} {r.detail}")
        if not r.passed:
            failed.append(r.name)
    lines.append(f"{len(results) - len(failed)}/{len(results)} identity families verified")
    if failed:
        lines.append(f"FAILED: {failed[0]}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _make_law(args) -> mc.InnovationLaw:
    if args.law == "uniform":
        return mc.uniform_law(parse_rational(args.a), parse_rational(args.b))
    if args.law == "biexponential":
        return mc.biexponential_law()
    if args.law == "gaussian":
        return mc.gaussian_law()
    return mc.atomic_negative_law(args.atom_mass)


def _cmd_simulate(args) -> int:
    if len(args.theta) > 1:
        raise DomainError(f"simulate runs at one drift; got {len(args.theta)} --theta values")
    mc.check_run_arguments(args.n, args.trials, args.workers)
    law = _make_law(args)
    theta = parse_rational(args.theta[0]) if args.theta else Fraction(0)
    exact = mc.exact_persistence_target(theta, law, args.n)
    est = mc.estimate_persistence(float(theta), law, args.n, args.trials, args.seed, workers=args.workers)
    z_score = None
    if exact is not None:
        sigma = math.sqrt(max(est.point * (1 - est.point), 1e-12 / args.trials) / args.trials)
        z_score = (est.point - exact) / sigma if sigma > 0 else 0.0
    payload = {
        "law": law.kind,
        "theta": float(theta),
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "successes": est.successes,
        "estimate": est.point,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "exact": exact,
        "z_score": z_score,
    }
    _emit(_json_dump(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def _cmd_rates(args) -> int:
    rows = []
    for tstr in args.theta or ["-1", "0", "1/4"]:
        bundle = asym.rate_bundle(parse_rational(tstr))
        resid = {} if bundle.root_residual is None else {"root": bundle.root_residual}
        rows.append(
            {
                "theta": bundle.theta,
                "z_root": bundle.z_root,
                "lambda_or_mu": bundle.lam if bundle.lam is not None else bundle.mu,
                "ell": bundle.ell,
                "nu": bundle.nu,
                "kappa_estimate": bundle.kappa_estimate,
                "c_estimate": bundle.c_estimate,
                "c_rel_drift": bundle.c_rel_drift,
                "residuals": resid if args.format == "json" else json.dumps(resid),
            }
        )
    fields = ["theta", "z_root", "lambda_or_mu", "ell", "nu", "kappa_estimate", "c_estimate", "c_rel_drift", "residuals"]
    _emit(_format_table(fields, rows, args.format), args.out)
    return 0


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def _cmd_volume(args) -> int:
    q = parse_rational(args.q) if args.q else None
    t = parse_rational(args.t) if args.t else None
    spec = mc.PolytopeSpec(args.kind, args.n, q=q, t=t)
    mc.check_run_arguments(spec.n, args.trials, 1)
    target = mc.polytope_exact_target(spec)
    est = mc.polytope_volume_mc(spec, args.trials, args.seed)
    sigma = (est.ci_high - est.ci_low) / (2 * mc.Z95)
    payload = {
        "kind": spec.kind,
        "n": spec.n,
        "q": format_rational(q) if q is not None else None,
        "t": format_rational(t) if t is not None else None,
        "trials": args.trials,
        "seed": args.seed,
        "estimate": est.point,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "exact": format_rational(target),
        "exact_float": float(target),
        "z_score": (est.point - float(target)) / sigma if sigma > 0 else 0.0,
        "in_interval": est.ci_low <= float(target) <= est.ci_high,
    }
    _emit(_json_dump(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def _cmd_figure(args) -> int:
    horizons = args.n or [4, 5]
    step = parse_rational(args.grid)
    lo, hi = Fraction(-5), Fraction(5)
    if not 0 < step <= hi - lo:
        raise DomainError("grid step must lie in (0, 10]")
    if min(horizons) < 2:
        raise DomainError("figure horizons must be >= 2")
    count = int((hi - lo) / step)
    thetas = [lo + k * step for k in range(count + 1)]
    prefixes = [pers.persistence_prefix(max(horizons), th) for th in thetas]
    tables = {n: [p[n] for p in prefixes] for n in horizons}
    h = float(step)
    lines = []
    for n in horizons:
        bd = fam.boundary_derivatives(n)
        lines.append(
            f"# one_sided_derivatives n={n} left_p1={format_rational(bd.left_p1)} "
            f"right_p1={format_rational(bd.right_p1)} left_p2={format_rational(bd.left_p2)} "
            f"right_p2={format_rational(bd.right_p2)}"
        )
    marks = sorted(
        {round(pers.fibonacci_root(i), 12) for i in range(1, max(horizons))}
        | {round(1.0 / pers.fibonacci_root(i), 12) for i in range(1, max(horizons))}
    )
    lines.append("# fibonacci_breakpoints " + " ".join(f"{m:.12g}" for m in marks))
    lines.append("# second_derivative_jump_at -1")
    header = ["theta"]
    for n in horizons:
        header += [f"p_{n}", f"p_{n}_float", f"dp_{n}"]
    header.append("marker")
    rows = []
    for i, th in enumerate(thetas):
        row = {"theta": format_rational(th)}
        for n in horizons:
            vals = tables[n]
            p = vals[i]
            if i == 0:
                d = (float(vals[1]) - float(vals[0])) / h
            elif i == len(thetas) - 1:
                d = (float(vals[-1]) - float(vals[-2])) / h
            else:
                d = (float(vals[i + 1]) - float(vals[i - 1])) / (2 * h)
            row[f"p_{n}"] = format_rational(p)
            row[f"p_{n}_float"] = repr(float(p))
            row[f"dp_{n}"] = repr(d)
        marker = ""
        if th == -1:
            marker = "theta=-1"
        else:
            for m in marks:
                if abs(float(th) - m) < h / 2:
                    marker = f"fibonacci~{m:.6g}"
                    break
        row["marker"] = marker
        rows.append(row)
    body = _rows_to_csv(header, rows)
    _emit("\n".join(lines) + "\n" + body, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reads any argument starting "-digit" or "-.digit" as a
    value, so "--theta -13/10" and "--theta -1e300" parse like "--theta -2"."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ar1lab",
        description="Exact and Monte Carlo laboratory for AR(1) persistence probabilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt=True):
        p.add_argument("--out", default=None, help="output file (default stdout; $AR1LAB_OUT prefixes relative paths)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("poly", help="polynomial family tables")
    p.add_argument("--family", choices=("J", "Jt", "Jh", "C", "zigzag", "tutte", "volume"), default="J")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--check-routes", action="store_true", help="cross-verify all computation routes")
    p.add_argument("--scan-negative", action="store_true",
                   help="exploratory scan for negative values of J at drifts below -1")
    add_common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("persist", help="exact persistence probability tables")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--theta", action="append", default=[], help='rational drift "num/den" (repeatable)')
    p.add_argument("--a", default="1", help="left uniform half-width")
    p.add_argument("--b", default="1", help="right uniform half-width")
    add_common(p)
    p.set_defaults(func=_cmd_persist)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--nmax", type=int, default=8)
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo persistence estimate")
    p.add_argument("--theta", action="append", default=[], help="drift (decimal or num/den)")
    p.add_argument("--law", choices=("uniform", "biexponential", "gaussian", "atomic"), default="uniform")
    p.add_argument("--a", default="1")
    p.add_argument("--b", default="1")
    p.add_argument("--atom-mass", type=float, default=0.5, help="negative-side mass c of the atomic law")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--workers", type=int, default=mc.usable_cpus(),
                   help="threads (default: usable CPUs; capped at CPUs and blocks; same counts at any value)")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rates", help="decay rates, limits and second-order rates")
    p.add_argument("--theta", action="append", default=[], help="drift (decimal or num/den; repeatable)")
    add_common(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("volume", help="hit-or-miss polytope volume vs exact target")
    p.add_argument("--kind", choices=mc.PolytopeSpec.KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--trials", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=20240901)
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("figure", help="drift-grid dataset of p_n and its numerical derivative")
    p.add_argument("--n", type=int, nargs="*", default=[4, 5])
    p.add_argument("--grid", default="1/20", help="rational grid step on [-5, 5]")
    add_common(p, fmt=False)
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
