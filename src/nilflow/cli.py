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
import re
import sys
from dataclasses import asdict

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Bracket,
    _check_tol,
    bracket_from_dict,
    bracket_to_dict,
    validate_bracket,
)
from .bch import metric_field_fit
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
    equivalence_report,
    integrate_bracket_flow,
    integrate_normalized_flow,
    type3_certificate,
    verify_flow_identities,
)
from .generators import filiform, heisenberg, random_two_step, rescale_to_norm
from .soliton import detect_convergence, orbit_invariants

# ---------------------------------------------------------------------------
# Bracket sources.


def _seed(seed):
    # default_rng and SeedSequence take only nonnegative integers
    if seed < 0:
        raise ConfigError(f"a seed must be a nonnegative integer, got {seed}")
    return seed


def _zero_n(n):
    if n < 1:
        raise ConfigError(f"zero needs n >= 1, got {n}")


# family -> (builder, {option: (type, default[, check])}): a default of None
# makes the option required, and check, when present, rejects a value out of range.
_GENERATORS = {
    "heisenberg": (heisenberg, {"c": (float, 1.0)}),
    "filiform": (lambda n, c: filiform(n, constants=[c] * (n - 2)), {"n": (int, None), "c": (float, 1.0)}),
    "random2step": (
        # m = 0 lets random_two_step choose m
        lambda n, seed, m, scale: random_two_step(n, np.random.default_rng(seed), m=m or None, scale=scale),
        {"n": (int, None), "seed": (int, 0, _seed), "m": (int, 0), "scale": (float, 1.0)},
    ),
    "zero": (lambda n: Bracket(np.zeros((n,) * 3)), {"n": (int, None, _zero_n)}),
}


def _generate(name, text):
    """Build generator `name` from its options text "key=value,...": each declared
    option is cast by its type, or takes its default, and passes its check."""
    builder, options = _GENERATORS[name]
    parts = [part.partition("=") for part in filter(None, text.split(","))]
    for key, sep, _ in parts:
        if not sep:
            raise ConfigError(f"generator option {key!r} is not key=value")
    given = {key.strip(): value.strip() for key, _, value in parts}
    unknown = set(given) - set(options)
    if unknown:
        raise ConfigError(f"unknown option(s) {sorted(unknown)} for generator {name!r}")
    kwargs = {}
    for key, (cast, default, *check) in options.items():
        if key not in given and default is None:
            raise ConfigError(f"generator spec needs {key}=<{cast.__name__}>")
        try:
            kwargs[key] = cast(given.get(key, default))
        except ValueError:
            raise ConfigError(f"{key}={given[key]!r} is not a valid {cast.__name__}") from None
        for ok in check:
            ok(kwargs[key])
    return builder(**kwargs)


def _bracket_from_json(text, what: str) -> Bracket:
    """Unparseable text (str, or bytes in a UTF encoding) is a usage error,
    exit 2, as is nesting too deep for the decoder; a parsed document that is
    not a valid bracket is a BracketFormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None
    return bracket_from_dict(doc)


def parse_bracket_source(src: str) -> Bracket:
    """Resolve a SOURCE argument: inline JSON, generator spec, or file path."""
    s = src.strip()
    if s.startswith("{"):
        return _bracket_from_json(s, "inline bracket")
    name, _, rest = s.partition(":")
    if name in _GENERATORS:
        return _generate(name, rest)
    try:
        with open(s, "rb") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(
            f"{s!r} is neither a readable file, inline JSON, nor one of the "
            f"generators {sorted(_GENERATORS)}"
        ) from None
    return _bracket_from_json(text, s)


def _load_source(args) -> Bracket:
    b = parse_bracket_source(args.source)
    if args.rescale is not None:
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
    print(f"n = {b.n}   |mu| = {b.norm:.12g}")
    print(f"jacobi residual:  {report.jacobi_residual:.3e}")
    if report.degree is not None:
        print(f"nilpotent:        yes (degree {report.degree}, series dims {report.series_dims})")
    else:
        print("nilpotent:        NO")
    for msg in report.messages:
        print(f"  - {msg}")
    if args.out:
        _write_json(args.out, {"n": b.n, "mu_norm": b.norm, **asdict(report)})
    return 0 if report.nilpotent else 1


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


def cmd_flow(args) -> int:
    trace = integrate_bracket_flow(_load_source(args), args.t_max, _flow_opts(args), r=args.rate)
    summary = {
        "kind": trace.kind,
        "samples": len(trace),
        "mu_norm_final": float(trace.mu_norm[-1]),
        "scal_final": float(trace.scal[-1]),
        "tr_ric2_final": float(trace.tr_ric2[-1]),
        "grad_norm_final": float(trace.grad_norm[-1]),
        "max_jacobi_residual": float(trace.jacobi_residual.max()),
        "stats": trace.stats,
    }
    failed = []
    for name in args.check:
        if name == "identities":
            rep = verify_flow_identities(trace, tolerance=args.check_tol)
            summary["identities"] = {
                "max_rel_err_scal": rep.max_rel_err_scal,
                "max_rel_err_energy": rep.max_rel_err_energy,
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
        f"{trace.kind} flow to t = {trace.stats['t_final']:.6g}: "
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
    trace = integrate_normalized_flow(_load_source(args), args.t_max, _flow_opts(args))
    report = detect_convergence(trace, tol=args.tol)
    # raises NotNilpotentError (exit 3) when the limit left the nilpotent cone
    invariants = orbit_invariants(trace.final_bracket)
    cert = report.certificate
    print(f"converged: {report.converged}  ({report.reason})")
    print(f"c = {cert.c:.9g}   residual = {cert.residual:.3e}   r_limit = {report.r_limit:.9g}")
    print(f"ricci spectrum: {np.array2string(np.array(invariants['ricci_spectrum']), precision=6)}")
    if not np.isnan(report.decay_rate):
        print(f"tail decay rate {report.decay_rate:.6g} (gap {report.rate_gap:.3g})")
    print(
        f"pre-Einstein r_limit = {report.predicted_r_limit:.9g} (residual {report.pre_einstein_residual:.1e})"
        f"   limit in orbit: {report.limit_in_orbit}"
    )
    if args.out:
        payload = report.to_dict()
        payload["limit_bracket"] = bracket_to_dict(trace.final_bracket)
        payload["invariants"] = invariants
        _write_json(args.out, payload)
    return 0 if report.converged else 1


def cmd_equivalence(args) -> int:
    b = _load_source(args)
    rep = equivalence_report(b, args.t_max, _flow_opts(args), r=args.rate, checkpoints=args.checkpoints)
    print(f"max pullback residual |mu(t) - h(t).mu0| / |mu|:  {rep.max_pullback_residual:.3e}")
    print(f"max gram residual     |G(t) - h^T h| / |G|:       {rep.max_gram_residual:.3e}")
    print(f"max scal mismatch (bracket vs inner-product):     {rep.max_scal_mismatch:.3e}")
    ok = rep.ok(args.tol)
    print(f"agreement within {args.tol:g}: {'yes' if ok else 'NO'}")
    if args.out:
        _write_json(args.out, asdict(rep))
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
                predicted_r_limit=rep.predicted_r_limit,
                limit_in_orbit=rep.limit_in_orbit,
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
    if args.count < 1:
        raise ConfigError(f"--count must be at least 1, got {args.count}")
    seeds = np.random.SeedSequence(_seed(args.seed)).spawn(args.count)
    cases = [_sweep_case(i, s, args) for i, s in enumerate(seeds)]

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
        line = f"{args.count} unnormalized flows (n = {args.n})"
        if ratios:
            line += f": worst sup t|mu|^2 / 2n = {max(ratios):.6f}"
        print(line)
    if errors:
        print(f"{len(errors)} case(s) failed numerically", file=sys.stderr)
    if args.out:
        _write_json(args.out, summary)
    return 3 if errors else 0


def cmd_metric_field(args) -> int:
    b = _load_source(args)
    try:
        degree = b.degree
    except NotNilpotentError as e:
        raise ConfigError(f"metric field needs a nilpotent bracket: {e}") from None
    field = metric_field_fit(b)
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


def _add_source(p):
    p.add_argument("source", help="bracket file, inline JSON, or generator spec")
    p.add_argument(
        "--rescale",
        type=float,
        metavar="NORM",
        help="rescale the bracket to this norm before use",
    )


def _add_integrator(p, t_max_default):
    p.add_argument("--t-max", type=float, default=t_max_default, help="integration time")
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-9)
    p.add_argument("--max-step", type=float, default=float("inf"))


def _add_rate(p):
    def rate(text):
        return text if text == "scalar" else float(text)

    text = "r of mu' = delta_mu(Ric) + r mu: 'scalar' (the normalized flow) or a constant; 0 if absent"
    p.add_argument("--rate", type=rate, metavar="{scalar,R}", help=text)


_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reads every negative float literal as a value, "--rate -1e6" too (the
    argparse pattern has no exponent); subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilflow",
        description="curvature flows of nilpotent Lie bracket structure constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check Jacobi and nilpotency")
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
    _add_rate(p)
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
    p.add_argument("--tol", type=float, default=1e-8, help="certificate tolerance, relative to |mu| |Ric|")
    p.add_argument("--out", help="write the report as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_soliton)

    p = sub.add_parser(
        "equivalence", help="compare the bracket, frame, and inner-product flows"
    )
    _add_source(p)
    _add_integrator(p, 5.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--checkpoints", type=int, default=26)
    _add_rate(p)
    p.add_argument("--out", help="write the residuals as JSON ('-' for stdout)")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("sweep", help="batch flows over random 2-step brackets")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
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
        # checked here too, so the message names the flag
        for dest, value in vars(args).items():
            if dest in ("tol", "check_tol"):
                _check_tol(value, f"--{dest.replace('_', '-')}")
        return args.func(args)
    except (NumericalFailure, NotNilpotentError) as e:
        # a flow limit that left the nilpotent cone is a numerical failure
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    # numpy refuses a bracket too large to allocate with a MemoryError
    except (NilflowError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
