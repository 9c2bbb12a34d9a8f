"""Command-line front end.

Subcommands map onto the library layers: validate / curvature for pointwise
inspection of a bracket, flow / soliton / equivalence for time evolution,
sweep for batches of random starting points, metric-field for the polynomial
metric coefficients of the associated simply connected group.

Bracket sources accept three forms: a path to a JSON file of structure
constants, an inline JSON object, or a generator spec such as
"heisenberg:c=2", "filiform:n=4", "random2step:n=5,seed=7", "zero:n=3".

Exit codes: 0 success, 1 a requested check failed, 2 bad configuration or
input and every other library error, 3 numerical failure during integration
(including a flow limit that is no longer nilpotent).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Bracket,
    bracket_from_dict,
    bracket_to_dict,
    central_series_dims,
    load_bracket,
    nilpotency_degree,
    validate_bracket,
)
from .bch import metric_field_2step, metric_field_fit
from .curvature import curvature_pack
from .exceptions import (
    BracketFormatError,
    ConfigError,
    NilflowError,
    NotNilpotentError,
    NumericalFailure,
)
from .flow import (
    FlowOpts,
    cointegrate_h,
    equivalence_report,
    integrate_bracket_flow,
    integrate_normalized_flow,
    integrate_r_normalized,
    type3_certificate,
    verify_flow_identities,
)
from .generators import filiform, heisenberg, random_two_step, rescale_to_norm
from .soliton import detect_convergence, orbit_invariants

log = logging.getLogger("nilflow.cli")


# ---------------------------------------------------------------------------
# Bracket sources.

_GENERATOR_KEYS = {
    "heisenberg": {"c"},
    "filiform": {"n", "c"},
    "random2step": {"n", "seed", "m", "scale"},
    "zero": {"n"},
}


def _spec_kwargs(text):
    out = {}
    for part in filter(None, text.split(",")):
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"generator option {part!r} is not key=value")
        out[key.strip()] = value.strip()
    return out


def _as_int(kw, key, default=None):
    if key not in kw:
        if default is None:
            raise ConfigError(f"generator spec needs {key}=<int>")
        return default
    try:
        return int(kw[key])
    except ValueError:
        raise ConfigError(f"{key}={kw[key]!r} is not an integer") from None


def _as_float(kw, key, default):
    if key not in kw:
        return default
    try:
        return float(kw[key])
    except ValueError:
        raise ConfigError(f"{key}={kw[key]!r} is not a number") from None


def parse_bracket_source(src: str) -> Bracket:
    """Resolve a SOURCE argument: inline JSON, generator spec, or file path."""
    s = src.strip()
    if s.startswith("{"):
        try:
            doc = json.loads(s)
        except json.JSONDecodeError as e:
            raise ConfigError(f"inline bracket is not valid JSON: {e}") from None
        return bracket_from_dict(doc)
    name, _, rest = s.partition(":")
    if name in _GENERATOR_KEYS:
        kw = _spec_kwargs(rest)
        unknown = set(kw) - _GENERATOR_KEYS[name]
        if unknown:
            raise ConfigError(f"unknown option(s) {sorted(unknown)} for generator {name!r}")
        if name == "heisenberg":
            return heisenberg(_as_float(kw, "c", 1.0))
        if name == "filiform":
            n = _as_int(kw, "n")
            c = _as_float(kw, "c", 1.0)
            return filiform(n, constants=[c] * (n - 2))
        if name == "zero":
            return Bracket(np.zeros((_as_int(kw, "n"),) * 3))
        rng = np.random.default_rng(_as_int(kw, "seed", 0))
        m = _as_int(kw, "m", 0) or None
        return random_two_step(_as_int(kw, "n"), rng, m=m, scale=_as_float(kw, "scale", 1.0))
    try:
        return load_bracket(s)
    except FileNotFoundError:
        raise ConfigError(
            f"{s!r} is neither a readable file, inline JSON, nor one of the "
            f"generators {sorted(_GENERATOR_KEYS)}"
        ) from None


def _load_source(args) -> Bracket:
    b = parse_bracket_source(args.source)
    if getattr(args, "rescale", None):
        b = rescale_to_norm(b, args.rescale)
    return b


def _write_json(path, payload) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _flow_opts(args) -> FlowOpts:
    return FlowOpts(rtol=args.rtol, atol=args.atol, max_step=args.max_step)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_validate(args) -> int:
    try:
        b = _load_source(args)
    except BracketFormatError as e:
        print(f"invalid: {e}")
        return 1
    report = validate_bracket(b, tol=args.tol)
    valid = report.skew_ok and report.nilpotent
    print(f"n = {b.n}   |mu| = {b.norm:.12g}")
    print(f"skew symmetric:   {'yes' if report.skew_ok else 'NO'}")
    print(f"jacobi residual:  {report.jacobi_residual:.3e}")
    if report.degree is not None:
        dims = central_series_dims(b, tol=args.tol)
        print(f"nilpotent:        yes (degree {report.degree}, series dims {dims})")
    else:
        print("nilpotent:        NO")
    for msg in report.messages:
        print(f"  - {msg}")
    if args.out:
        _write_json(
            args.out,
            {
                "n": b.n,
                "mu_norm": b.norm,
                "skew_ok": report.skew_ok,
                "jacobi_residual": report.jacobi_residual,
                "nilpotent": report.nilpotent,
                "degree": report.degree,
                "valid": valid,
                "messages": list(report.messages),
            },
        )
    return 0 if valid else 1


def cmd_curvature(args) -> int:
    b = _load_source(args)
    pack = curvature_pack(b)
    with np.printoptions(precision=6, suppress=True):
        print("ricci operator:")
        print(pack.ricci)
    print(f"spectrum:   {np.array2string(pack.spectrum, precision=6)}")
    print(f"scal = {pack.scal:.12g}   |Ric| = {pack.ricci_norm:.12g}   tr Ric^2 = {pack.energy:.12g}")
    if args.out:
        _write_json(args.out, pack.to_dict())
    return 0


def _run_flow(args, b):
    t_max = args.t_max
    opts = _flow_opts(args)
    if args.kind == "normalized":
        if abs(b.norm - 2.0) > 1e-10:
            raise ConfigError(
                f"normalized flow needs |mu| = 2, got {b.norm:.6g}; pass --rescale 2"
            )
        return integrate_normalized_flow(b, t_max, opts)
    if args.kind == "unnormalized":
        return integrate_bracket_flow(b, t_max, opts)
    return integrate_r_normalized(b, args.rho, t_max, opts)


def cmd_flow(args) -> int:
    b = _load_source(args)
    trace = _run_flow(args, b)
    summary = {
        "kind": trace.kind,
        "samples": len(trace),
        "t_final": trace.stats["t_final"],
        "mu_norm_final": float(trace.mu_norm[-1]),
        "scal_final": float(trace.scal[-1]),
        "tr_ric2_final": float(trace.tr_ric2[-1]),
        "grad_norm_final": float(trace.grad_norm[-1]),
        "max_jacobi_residual": float(trace.jacobi_residual.max()),
        "stats": trace.stats,
    }
    if args.with_h:
        hs = cointegrate_h(trace)
        summary["h_final_det"] = float(np.linalg.det(hs[-1]))
    failed = []
    for name in args.check:
        if name == "identities":
            rep = verify_flow_identities(trace, tolerance=args.check_tol)
            summary["identities"] = {
                "max_rel_err_scal": rep.max_rel_err_scal,
                "max_rel_err_norm": rep.max_rel_err_norm,
                "ok": rep.ok,
            }
            if not rep.ok:
                failed.append(name)
        else:
            rep = type3_certificate(trace)
            summary["type3"] = rep.to_dict()
            if not (rep.norm_bound_ok and rep.ricci_bound_ok):
                failed.append(name)
    print(
        f"{trace.kind} flow to t = {summary['t_final']:.6g}: "
        f"|mu| = {summary['mu_norm_final']:.6g}, scal = {summary['scal_final']:.6g}, "
        f"tr Ric^2 = {summary['tr_ric2_final']:.6g} "
        f"({summary['samples']} samples, {trace.stats['accepted']} steps)"
    )
    for name in args.check:
        state = "FAILED" if name in failed else "ok"
        print(f"check {name}: {state}")
    if args.trace_out:
        trace.to_csv(args.trace_out)
    if args.brackets_out:
        trace.snapshots_to_json(args.brackets_out)
    if args.summary_out:
        _write_json(args.summary_out, summary)
    return 1 if failed else 0


def cmd_soliton(args) -> int:
    b = _load_source(args)
    if abs(b.norm - 2.0) > 1e-10:
        raise ConfigError(f"soliton search flows on |mu| = 2, got {b.norm:.6g}; pass --rescale 2")
    trace = integrate_normalized_flow(b, args.t_max, _flow_opts(args))
    report = detect_convergence(trace, tol=args.tol)
    cert = report.certificate
    print(f"converged: {report.converged}  ({report.reason})")
    print(f"c = {cert.c:.9g}   residual = {cert.residual:.3e}   r_limit = {report.r_limit:.9g}")
    print(f"ricci spectrum: {np.array2string(cert.ricci_spectrum, precision=6)}")
    if not np.isnan(report.decay_rate):
        print(f"tail decay rate {report.decay_rate:.4g} (r^2 = {report.fit_r2:.4f})")
    if args.out:
        payload = report.to_dict()
        payload["limit_bracket"] = bracket_to_dict(trace.final_bracket)
        payload["invariants"] = orbit_invariants(trace.final_bracket)
        _write_json(args.out, payload)
    return 0 if report.converged else 1


def cmd_equivalence(args) -> int:
    b = _load_source(args)
    r = "scalar" if args.normalized else args.rho
    rep = equivalence_report(b, args.t_max, _flow_opts(args), r=r, checkpoints=args.checkpoints)
    print(f"max pullback residual |mu(t) - h(t).mu0| / |mu|:  {rep.max_pullback_residual:.3e}")
    print(f"max gram residual     |G(t) - h^T h| / |G|:       {rep.max_gram_residual:.3e}")
    print(f"max scal mismatch (bracket vs inner-product):     {rep.max_scal_mismatch:.3e}")
    ok = rep.ok(args.tol)
    print(f"agreement within {args.tol:g}: {'yes' if ok else 'NO'}")
    if args.out:
        _write_json(args.out, rep.to_dict())
    return 0 if ok else 1


def _sweep_case(index, seed_seq, args):
    rng = np.random.default_rng(seed_seq)
    b = rescale_to_norm(random_two_step(args.n, rng), 2.0)
    record = {"index": index}
    try:
        if args.kind == "normalized":
            trace = integrate_normalized_flow(b, args.t_max)
            rep = detect_convergence(trace)
            inv = orbit_invariants(trace.final_bracket)
            # round before formatting so -1e-7 and +1e-7 share a fingerprint
            spec = ",".join(f"{round(v, 6) + 0.0:+.6f}" for v in inv["ricci_spectrum"])
            record.update(
                converged=rep.converged,
                r_limit=rep.r_limit,
                residual=rep.certificate.residual,
                fingerprint=f"deg={inv['degree']};dims={inv['series_dims']};spec=[{spec}]",
            )
        else:
            trace = integrate_bracket_flow(b, args.t_max)
            t3 = type3_certificate(trace)
            record.update(
                sup_norm_ratio=t3.sup_norm_ratio,
                sup_t_ricci=t3.sup_t_ricci,
                norm_bound_ok=t3.norm_bound_ok,
                ricci_bound_ok=t3.ricci_bound_ok,
            )
    except (NumericalFailure, NotNilpotentError) as e:
        record["error"] = str(e)
    return record


def cmd_sweep(args) -> int:
    seeds = np.random.SeedSequence(args.seed).spawn(args.count)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            cases = list(pool.map(lambda iv: _sweep_case(iv[0], iv[1], args), enumerate(seeds)))
    else:
        cases = [_sweep_case(i, s, args) for i, s in enumerate(seeds)]
    cases.sort(key=lambda rec: rec["index"])

    summary = {"kind": args.kind, "n": args.n, "count": args.count, "seed": args.seed, "cases": cases}
    errors = [rec for rec in cases if "error" in rec]
    if args.kind == "normalized":
        clusters = {}
        for rec in cases:
            if "fingerprint" in rec:
                clusters.setdefault(rec["fingerprint"], []).append(rec["index"])
        summary["clusters"] = [
            {"fingerprint": fp, "count": len(members), "members": members}
            for fp, members in sorted(clusters.items())
        ]
        print(f"{args.count} normalized flows on random 2-step brackets (n = {args.n}):")
        for entry in summary["clusters"]:
            print(f"  {entry['count']:3d} x {entry['fingerprint']}")
    else:
        ratios = [rec["sup_norm_ratio"] for rec in cases if "sup_norm_ratio" in rec]
        summary["worst_norm_ratio"] = max(ratios) if ratios else None
        print(
            f"{args.count} unnormalized flows (n = {args.n}): "
            f"worst sup t|mu|^2 / 2n = {summary['worst_norm_ratio']:.6f}"
        )
    if errors:
        print(f"{len(errors)} case(s) failed numerically", file=sys.stderr)
    if args.out:
        _write_json(args.out, summary)
    return 3 if errors else 0


def cmd_metric_field(args) -> int:
    b = _load_source(args)
    try:
        degree = nilpotency_degree(b)
    except NilflowError as e:
        raise ConfigError(f"metric field needs a nilpotent bracket: {e}") from None
    field = metric_field_2step(b) if degree <= 2 else metric_field_fit(b)
    by_degree = {}
    for alpha, mat in field.coefficients.items():
        by_degree.setdefault(sum(alpha), 0.0)
        by_degree[sum(alpha)] += float(np.linalg.norm(mat)) ** 2
    print(f"polynomial metric on the group of a degree-{degree} bracket (n = {b.n})")
    print(f"monomial coefficients: {len(field.coefficients)}, top degree {field.degree}")
    for deg in sorted(by_degree):
        print(f"  degree {deg}: coefficient norm {by_degree[deg] ** 0.5:.6g}")
    if args.out:
        _write_json(args.out, field.to_dict())
    return 0


# ---------------------------------------------------------------------------
# Parser.


def _add_source(p, rescale_default=None):
    p.add_argument("source", help="bracket file, inline JSON, or generator spec")
    p.add_argument(
        "--rescale",
        type=float,
        default=rescale_default,
        metavar="NORM",
        help="rescale the bracket to this norm before use",
    )


def _add_integrator(p, t_max_default):
    p.add_argument("--t-max", type=float, default=t_max_default, help="integration time")
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--max-step", type=float, default=float("inf"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="curvature flows of nilpotent Lie bracket structure constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check skew symmetry, Jacobi, and nilpotency")
    _add_source(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", help="write a JSON report ('-' for stdout)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("curvature", help="Ricci data of a bracket")
    _add_source(p)
    p.add_argument("--out", help="write a JSON report ('-' for stdout)")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("flow", help="integrate a bracket flow")
    _add_source(p)
    _add_integrator(p, 1.0)
    p.add_argument(
        "--kind",
        choices=("unnormalized", "normalized", "r-const"),
        default="unnormalized",
    )
    p.add_argument("--rho", type=float, default=0.0, help="constant rate for --kind r-const")
    p.add_argument("--with-h", action="store_true", help="co-integrate the frame h(t)")
    p.add_argument(
        "--check",
        action="append",
        choices=("identities", "type3"),
        default=[],
        help="verify a structural property of the trace (repeatable)",
    )
    p.add_argument("--check-tol", type=float, default=1e-4)
    p.add_argument("--trace-out", help="write per-sample diagnostics as CSV")
    p.add_argument("--brackets-out", help="write bracket snapshots as JSON")
    p.add_argument("--summary-out", help="write a JSON summary ('-' for stdout)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("soliton", help="flow to a soliton and certify the limit")
    _add_source(p)
    _add_integrator(p, 100.0)
    p.add_argument("--tol", type=float, default=1e-8, help="certificate tolerance")
    p.add_argument("--out", help="write the report as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser(
        "equivalence", help="compare the bracket, frame, and inner-product flows"
    )
    _add_source(p)
    _add_integrator(p, 5.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--checkpoints", type=int, default=26)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--normalized", action="store_true", help="use the tr(Ric^2)-normalized flow")
    group.add_argument("--rho", type=float, default=None, help="constant normalization rate")
    p.add_argument("--out", help="write the residuals as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("sweep", help="batch flows over random 2-step brackets")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--kind", choices=("normalized", "unnormalized"), default="normalized")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--out", help="write all cases and clusters as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metric-field", help="polynomial metric coefficients of the group")
    _add_source(p)
    p.add_argument("--out", help="write the coefficients as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_metric_field)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("NILFLOW_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    if args.command == "sweep" and args.t_max is None:
        args.t_max = 100.0 if args.kind == "normalized" else 5.0
    try:
        return args.func(args)
    except (NumericalFailure, NotNilpotentError) as e:
        # a flow limit that left the nilpotent cone is a numerical failure
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (NilflowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
