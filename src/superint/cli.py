"""Command-line front end.

Subcommands: verify, casimir, curvature, revolution, linear, tables,
trajectory, dump-catalog.  Exit status 0 when every executed identity
passes at its tolerance, 1 on verification failure, 2 on configuration
errors, 3 on sampling/domain failures.  Reports are JSON (default),
human-readable lines, or CSV where tabular.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import catalog, geometry
from .dynamics import (ABS_TOL, MAX_ABS_H, REL_TOL, _csv, _drifts, clamp_energy,
                       conserved_values, integrate)
from .errors import DomainError, SamplingError, StepFailure
from .jets import PhasePoint
from .poisson import (DEFAULT_SEED, REPORT_SCHEMA, TOL_BRACKET, TOL_NESTED,
                      report_header, verify_algebra, verify_casimir)
from .systems import CLASS_TAGS, sample_points, spec_from_dict


def _add_spec_args(p):
    p.add_argument("--class", dest="cls", choices=CLASS_TAGS,
                   help="system class tag")
    for name in catalog.PARAM_NAMES:
        p.add_argument(f"--{name}", dest=f"p_{name}", type=float, default=0.0,
                       help=f"parameter {name} (default 0)")
    p.add_argument("--spec-file", help="JSON file with the flat spec document")


def _at_least(low):
    """argparse type of an integer of at least ``low``: 1 for a count, 0 for
    a seed."""
    def integer(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


def _positive(text):
    """argparse type of a duration: a finite float above 0."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return x


def _tolerance(text):
    """argparse type of a tolerance: a finite float of at least 0."""
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return x


# flags only some report commands read
_OPTIONAL_ARGS = {
    "tol-bracket": dict(type=_tolerance, default=TOL_BRACKET,
                        help="tolerance for first brackets"),
    "tol-nested": dict(type=_tolerance, default=TOL_NESTED,
                       help="tolerance for nested brackets / Casimir"),
    "threads": dict(type=int, default=1,
                    help="accepted for compatibility; has no effect"),
}


def _spec_from_args(args):
    if args.spec_file:
        try:
            with open(args.spec_file) as fh:
                doc = json.load(fh)
            return spec_from_dict(doc)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad spec file {args.spec_file}: {exc}")
    if not args.cls:
        raise ConfigError("either --class or --spec-file is required")
    doc = {name: getattr(args, f"p_{name}") for name in catalog.PARAM_NAMES}
    try:
        return spec_from_dict({"class": args.cls, **doc})
    except ValueError as exc:
        raise ConfigError(str(exc))


class ConfigError(Exception):
    pass


def _emit(doc, args, human_lines=None):
    if not args.no_timestamp:
        doc = dict(doc)
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    if args.format == "human":
        text = "\n".join(human_lines or [json.dumps(doc, sort_keys=True)]) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    _write(text, args.output)


def _write(text, path):
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args):
    spec = _spec_from_args(args)
    rep = verify_algebra(spec, n_points=args.points, seed=args.seed,
                         tol_bracket=args.tol_bracket, tol_nested=args.tol_nested,
                         threads=args.threads)
    _emit(rep.to_dict(), args, rep.summary_lines())
    return 0 if rep.passed else 1


def _cmd_casimir(args):
    spec = _spec_from_args(args)
    rep = verify_casimir(spec, n_points=args.points, seed=args.seed,
                         tol=args.tol_nested, threads=args.threads)
    _emit(rep.to_dict(), args, rep.summary_lines())
    return 0 if rep.passed else 1


def _cmd_curvature(args):
    spec = _spec_from_args(args)
    c = geometry.classify_curvature(spec, n_points=args.points, seed=args.seed)
    doc = {**report_header("curvature", spec, args.seed, args.points),
           "classification": c.tag, "mean": c.mean, "stddev": c.stddev,
           "max_abs": c.max_abs}
    if args.expect:
        ok = c.tag.lower() == args.expect.lower()
        doc["expected"] = args.expect
        doc["pass"] = ok
    _emit(doc, args, [f"curvature {c.tag} mean={c.mean:+.6e} "
                      f"std={c.stddev:.2e} max|K|={c.max_abs:.2e}"])
    return 0 if doc.get("pass", True) else 1


def _cmd_revolution(args):
    spec = _spec_from_args(args)
    pts = sample_points(spec, args.points, np.random.default_rng(args.seed))
    out = {coords: geometry.revolution_tag(spec, pts, coords)
           for coords in ("liouville", "transformed")}
    doc = {**report_header("revolution", spec, args.seed, args.points), "result": out}
    verified = any(v != "Neither" for v in out.values())
    doc["pass"] = verified
    _emit(doc, args, [f"{c}: {v}" for c, v in out.items()])
    return 0 if verified else 1


def _cmd_linear(args):
    spec = _spec_from_args(args)
    signs = ("plus", "minus") if args.sign == "both" else (args.sign,)
    pts = sample_points(spec, args.points, np.random.default_rng(args.seed))
    results = {}
    for sign in signs:
        for coords in ("liouville", "transformed"):
            try:
                results[f"{sign}/{coords}"] = geometry.linear_residual(spec, pts, sign,
                                                                       coords)
            except DomainError:
                continue
    best = min(results.values(), default=None)
    doc = {**report_header("linear-integral", spec, args.seed, args.points),
           "residuals": results, "tolerance": args.tol_bracket,
           "pass": best is not None and best <= args.tol_bracket}
    _emit(doc, args, [f"{k}: {v:.3e}" for k, v in results.items()])
    return 0 if doc["pass"] else 1


def _cmd_tables(args):
    tables = catalog.TABLES if args.table == "all" else (args.table,)
    rows = []
    ok = True
    for table in tables:
        for entry in catalog.lookup(table=table, include_aliases=False):
            v = catalog.verify_entry(entry, free_draws=args.draws, seed=args.seed,
                                     n_points=args.points)
            rows.append({"table": table, "row_id": entry.row_id,
                         "claim": entry.claim_kind, "status": v.status})
            ok &= v.passed
    doc = {"schema": REPORT_SCHEMA, "kind": "tables", "seed": args.seed,
           "draws": args.draws, "rows": rows, "pass": ok}
    human = [f"{r['table']} {r['row_id']:22s} {r['claim']:18s} {r['status']}"
             for r in rows]
    if args.format == "csv":
        text = "table,row_id,claim,status\n" + "\n".join(
            f"{r['table']},{r['row_id']},{r['claim']},{r['status']}" for r in rows) + "\n"
        _write(text, args.output)
        return 0 if ok else 1
    _emit(doc, args, human)
    return 0 if ok else 1


def _cmd_trajectory(args):
    spec = _spec_from_args(args)
    try:
        vals = [float(x) for x in args.initial.split(",")]
        if len(vals) != 4:
            raise ValueError
    except ValueError:
        raise ConfigError("--initial must be 'xi,eta,p_xi,p_eta'")
    if args.rel_tol == 0 and args.abs_tol == 0:
        raise ConfigError("--rel-tol and --abs-tol cannot both be 0")
    point, scale = clamp_energy(spec, PhasePoint(*vals))
    traj = integrate(spec, point, t_end=args.t_end, rel_tol=args.rel_tol,
                     abs_tol=args.abs_tol)
    vals = conserved_values(spec, traj.points)
    _write(_csv(traj, vals), args.output)
    rep = _drifts(vals)
    summary = {"status": traj.status, "steps": traj.stats,
               "drifts": {k: v["normalized"] for k, v in rep.items()}}
    if scale != 1.0:
        summary["momentum_scale"] = scale
    if traj.exit_time is not None:
        summary["exit_time"] = traj.exit_time
    sys.stderr.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _cmd_dump_catalog(args):
    doc = catalog.catalog_json()
    _write(json.dumps(doc, sort_keys=True, indent=1) + "\n", args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token of the form -<digit> or
    -.<digit> as a value, so negative numbers in any notation (-1e-3) and
    lists that start with one (-0.5,0.3) reach their flag; argparse alone
    takes only -<digits> and -<digits>.<digits> for numbers.  No flag of
    this CLI starts with a digit.  Subcommand parsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser():
    parser = _Parser(
        prog="superint",
        description="Numerical certification of 2D superintegrable systems "
                    "with quadratic integrals of motion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help, points=100, spec=True, optional=(),
            formats=("json", "human")):
        """A report command: spec flags, report flags and the optional flags named."""
        p = sub.add_parser(name, help=help)
        if spec:
            _add_spec_args(p)
        p.add_argument("--points", type=_at_least(1), default=points)
        p.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from reports (CI determinism)")
        for flag in optional:
            p.add_argument(f"--{flag}", **_OPTIONAL_ARGS[flag])
        p.set_defaults(fn=fn)
        return p

    cmd("verify", _cmd_verify,
        "verify {H,A}={H,B}={H,C}=0 and the quadratic-algebra rows",
        optional=("tol-bracket", "tol-nested", "threads"))
    cmd("casimir", _cmd_casimir, "verify the Casimir identity",
        optional=("tol-nested", "threads"))
    p = cmd("curvature", _cmd_curvature, "classify the Gaussian curvature",
            points=50)
    p.add_argument("--expect", choices=("zero", "constant", "nonconstant"),
                   help="exit nonzero unless the classification matches")
    cmd("revolution", _cmd_revolution, "directional surface-of-revolution test",
        points=50)
    p = cmd("linear", _cmd_linear, "check a linear integral p_xi +/- p_eta",
            points=50, optional=("tol-bracket",))
    p.set_defaults(tol_bracket=geometry.TOL_LINEAR)   # the bound catalog rows use
    p.add_argument("--sign", choices=("plus", "minus", "both"), default="both")

    p = cmd("tables", _cmd_tables, "sweep the classification tables",
            points=50, spec=False, formats=("json", "human", "csv"))
    p.add_argument("--table", choices=catalog.TABLES + ("all",), default="all")
    p.add_argument("--draws", type=_at_least(1), default=5)

    p = sub.add_parser("trajectory",
                       help="integrate Hamilton's equations and export CSV")
    _add_spec_args(p)
    p.add_argument("--output", help="write the CSV to this path")
    p.set_defaults(fn=_cmd_trajectory)
    p.add_argument("--initial", required=True,
                   help="xi,eta,p_xi,p_eta; the momenta are scaled down when that "
                        f"brings |H| from above {MAX_ABS_H:g} to at most {MAX_ABS_H:g}")
    p.add_argument("--t-end", type=_positive, default=10.0)
    p.add_argument("--rel-tol", type=_tolerance, default=REL_TOL)
    p.add_argument("--abs-tol", type=_tolerance, default=ABS_TOL)

    p = sub.add_parser("dump-catalog", help="print the embedded table catalog")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_dump_catalog)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error contract
        return int(exc.code) if exc.code else 0
    try:
        # a value that leaves float64 ends in a typed error or a failing
        # check, so numpy's floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (SamplingError, DomainError, StepFailure) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
