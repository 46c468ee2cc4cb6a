"""Print every output that a behaviour-preserving change must keep byte-identical.

    python3 tools/report_corpus.py [SRC] > corpus.txt

``SRC`` is the source tree to import ``superint`` from (default: this
checkout's ``src``).  To check a change, run the script once per tree and
compare the two outputs byte for byte:

    python3 tools/report_corpus.py /path/to/parent/src > parent.txt
    python3 tools/report_corpus.py > change.txt
    cmp parent.txt change.txt

or in one command, with the ``src/`` of a git revision (default ``HEAD``) as
the parent's, ``python3 tools/corpus_cmp.py [REV]``, which prints the first
differing lines and exits 1 when the outputs differ.

The corpus is:

* ``verify_algebra`` and ``verify_casimir`` JSON for the six classes at the
  reference parameters and at two random admissible draws per class, at
  100, 513 and 4097 points (4097 leaves a one-point last chunk), each also
  with a forced affine correction at 513 and 4097 points;
* every CLI command with ``--no-timestamp`` where it has it, with its
  standard output, standard error (without numpy's floating-point warnings) and
  exit code, including the exit-2 and exit-3 paths, three runs whose
  residual maximum is not finite and two whose curvature is not finite;
* the five pinned trajectories as CSV through the CLI, with the summary it
  writes to standard error;
* the ``drift_report`` JSON of the five pinned trajectories, and
  ``conserved_values`` at each of their initial states alone;
* two runs that leave their domain, one of them rejecting steps both in a
  stage and on the error test, with status, ``exit_time``, stats, times and
  states in hexadecimal;
* the flow's right-hand side (``dynamics._slope`` of the compiled flow's
  traced gradient) with 17 significant digits at the five pinned initial
  states, and at 20 sampled states and at states outside the domain
  (poles, negative coordinates, |y| up to 1e3, NaN and inf) of the
  reference specs and the random draws, with the exception type and text
  where one is raised;
* ``revolution_tag`` in both coordinate systems, with the largest
  directional residuals behind it, and ``linear_residual`` for every sign
  and coordinate choice (p_xi +/- p_eta, p_X +/- p_Y, p_eta), on the 50
  points the sampling wrappers ``revolution_check`` and
  ``linear_integral_check`` draw, on the six reference specs, the random
  draws and three specs with such a structure;
* ``characteristic_residual``, both ``structural_pde_residual`` pairs and
  the recoordinatized metric ``tilde_metric`` on 50 sampled points of each
  of the six reference specs and the random draws, with 17 significant
  digits;
* ``verify_entry(...).to_dict()`` for every non-alias catalog row at two
  draws and at the ``tables`` bench size (five draws of 50 points, seed
  101), and for the four alias rows at two draws, so curvature means and
  deviations and linear residuals are compared, not only statuses; and at
  both sizes for two hand-built rows: every parameter fixed at an II2 spec
  whose algebra fails after the affine correction runs inside a draw, and a
  ``curvature_zero`` claim on a curved I3 metric, whose claim fails;
* ``constants_poly``'s nine fields in hexadecimal, with the shape (so the
  length) of each coefficient array, for the reference specs, the random
  draws, the all-zero spec of each class and specs whose top coefficients
  vanish (``kappa = 0``, ``lam = mu = 0``, ...), and ``at_energy`` at an
  array of energies (0 and -0.0 among them) and at Python floats, with each
  value's type and shape;
* ``sample_points`` for the reference specs and the random draws at 1, 7,
  2049 and 20000 points, as the sha256 of the array bytes and the first and
  last points with 17 significant digits, and for the all-zero spec of each
  class and six draws per class with parameters of order 1e-3 (some need
  several batches, some raise) at 100 and 2049 points, with the
  ``SamplingError`` text where one is raised;
* ``Observable.eval`` of ``hamiltonian``, ``integral_A``, ``integral_B`` and
  the conformal factor g at orders 1 and 2 (value, gradient and, at order 2,
  the packed Hessian), ``geometry.curvature`` point by point,
  ``poisson.bracket`` of (H, A), (H, B) and (A, B) with its scales, and
  ``c_observable``'s order-1 bracket and value, all in hexadecimal, on 20
  sampled points of the reference specs and the random draws;
* ``Observable.dual`` of the same four observables (value and gradient from
  ``Dual4`` numbers) in hexadecimal, at each of those 20 points alone, and
  there too, both as a 0-d point and as a one-point batch, the order-2
  ``Observable.eval`` of H, A and B and ``poisson.bracket`` of (H, A),
  (H, B) and (A, B);
* every ``SystemFns`` closed form (F, G, f_pot, g_pot, the four tilde
  functions, intF, intf, A_of_xi, sqrtA and X_of_xi) in hexadecimal, on
  float arrays and on order-2 ``CoordJet``s, at the arguments the
  observables give it, on the 20 sampled points of the reference specs and
  the random draws, and on the reference spec's points for the all-zero
  spec of each class and the vanishing-coefficient specs of
  ``constants_poly``.

It takes under a minute on one core.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import warnings

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath(sys.argv[1]) if len(sys.argv) > 1
                else os.path.join(ROOT, "src"))

from superint import catalog, cli, dynamics, geometry, poisson  # noqa: E402
from superint.errors import SamplingError, SuperintError  # noqa: E402
from superint.jets import CoordJet, Jet2, Observable, PhasePoint  # noqa: E402
from superint.poisson import verify_algebra, verify_casimir  # noqa: E402
from superint.systems import (CLASS_TAGS, SystemSpec, build_fns,  # noqa: E402
                              characteristic_residual, constants_poly, hamiltonian,
                              integral_A, integral_B, sample_points,
                              structural_pde_residual)

REF = dict(kappa=1.0, lam=0.5, mu=-0.3, nu=2.0, k=0.4, ell=-0.1, m=0.2, n=1.0)
SIZES = (100, 513, 4097)
FORCED_SIZES = (513, 4097)
FORCING_TOL = 1e-30  # below any residual, so the affine correction always runs

GENERIC = ["--class", "I1", "--kappa", "1", "--lambda", "0.5", "--mu", "-0.3",
           "--nu", "2", "--k", "0.4", "--ell", "-0.1", "--m", "0.2", "--n", "1"]
# the five pinned (spec, initial state) pairs of the acceptance suite
TRAJECTORIES = [
    ["--class", "I1", "--kappa", "0.184", "--lambda", "0.291", "--mu", "0.354",
     "--nu", "1.254", "--k", "0.418", "--ell", "0.063", "--m", "0.212", "--n", "0.399",
     "--initial", "1.053,0.348,0.007,0.359"],
    ["--class", "I2", "--kappa", "0.381", "--lambda", "0.185", "--mu", "0.584",
     "--nu", "1.348", "--k", "0.172", "--ell", "0.033", "--m", "0.348", "--n", "0.114",
     "--initial", "1.192,0.4,-0.348,0.729"],
    ["--class", "II1", "--mu", "1", "--nu", "1", "--m", "0.5", "--n", "0.2",
     "--initial", "1.0,1.2,0.6,0.7"],
    ["--class", "II2", "--kappa", "0.3", "--nu", "2", "--k", "0.3", "--n", "0.2",
     "--initial", "1.0,1.0,0.7,0.6"],
    ["--class", "II3", "--lambda", "0.5", "--mu", "0.5", "--nu", "2", "--m", "0.2",
     "--n", "0.3", "--initial", "1.0,1.0,0.6,-0.4"],
]
CLI_RUNS = [
    ["verify", *GENERIC, "--no-timestamp"],
    ["verify", *GENERIC, "--no-timestamp", "--format", "human"],
    ["verify", *GENERIC, "--no-timestamp", "--points", "5000"],
    ["verify", *GENERIC, "--no-timestamp", "--tol-nested", "1e-30"],
    ["casimir", *GENERIC, "--no-timestamp"],
    ["casimir", "--class", "I3", *GENERIC[2:], "--no-timestamp", "--tol-nested", "1e-30"],
    ["curvature", "--class", "II1", "--kappa", "1", "--no-timestamp", "--expect", "zero"],
    ["curvature", *GENERIC, "--no-timestamp"],
    ["revolution", "--class", "I1", "--mu", "0.5", "--nu", "1.5", "--no-timestamp"],
    ["revolution", "--class", "II1", "--kappa", "1", "--no-timestamp"],
    ["linear", "--class", "I2", "--lambda", "0.6", "--nu", "1.1", "--ell", "0.2",
     "--n", "0.4", "--sign", "both", "--no-timestamp"],
    ["tables", "--no-timestamp"],
    ["tables", "--table", "T3", "--format", "csv"],
    ["tables", "--table", "T2", "--format", "human", "--no-timestamp"],
    ["dump-catalog"],
    ["verify", "--class", "I1", "--nu", "2", "--points", "0"],
    ["verify", "--class", "II1", "--no-timestamp"],
    # a residual maximum that is not finite, with and without the affine fit
    ["casimir", "--class", "II3", "--kappa", "1e155", "--nu", "1", "--no-timestamp"],
    ["verify", "--class", "II3", "--kappa", "1e155", "--nu", "1", "--no-timestamp"],
    ["casimir", "--class", "I1", "--kappa", "1e160", "--no-timestamp"],
    # a curvature that is not finite at some or all of the points
    ["curvature", "--class", "II3", "--kappa", "1e155", "--nu", "1", "--expect", "nonconstant",
     "--no-timestamp"],
    ["curvature", "--class", "I1", "--kappa", "1e160", "--expect", "nonconstant",
     "--no-timestamp"],
] + [["trajectory", *args, "--t-end", "10"] for args in TRAJECTORIES]


def _draws(tag, count, seed):
    """``count`` random specs of class ``tag`` that admit 100 sample points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        spec = SystemSpec(tag, *rng.uniform(-2.0, 2.0, size=8))
        try:
            sample_points(spec, 100, np.random.default_rng(0))
        except SamplingError:
            continue
        out.append(spec)
    return out


def _specs():
    for i, tag in enumerate(CLASS_TAGS):
        yield from [SystemSpec(tag, **REF)] + _draws(tag, 2, 500 + i)


def _library():
    for spec in _specs():
        for n in SIZES:
            print(verify_algebra(spec, n_points=n).to_json())
            print(verify_casimir(spec, n_points=n).to_json())
        for n in FORCED_SIZES:
            print(verify_algebra(spec, n_points=n, tol_nested=FORCING_TOL).to_json())
            print(verify_casimir(spec, n_points=n, tol=FORCING_TOL).to_json())


def _attempt(fn, *args, **kwargs):
    """``fn``'s result, or the package error it raises, as a printable value."""
    try:
        return fn(*args, **kwargs)
    except SuperintError as exc:
        return f"{type(exc).__name__}: {exc}"


def _json(value):
    return json.dumps(value, sort_keys=True, default=lambda a: np.asarray(a).tolist())


def _pinned():
    """The five pinned (spec, initial state) pairs, as the CLI reads them."""
    parser = cli.build_parser()
    for argv in TRAJECTORIES:
        ns = parser.parse_args(["trajectory", *argv])
        yield cli._spec_from_args(ns), tuple(map(float, ns.initial.split(",")))


def _flow():
    # every pinned state has |H| <= 10, so the CLI's energy clamping, which
    # the CLI runs above go through, leaves it as it is
    for spec, y0 in _pinned():
        y0 = PhasePoint(*y0)
        print(_json(dynamics.conserved_values(spec, y0)))
        traj = dynamics.integrate(spec, y0, t_end=10.0)
        print(_json(dynamics.drift_report(spec, traj)))


# (spec, initial state, controls) of runs that end in ``domain_exit``; the
# II2 run rejects steps whose stages fail and steps that fail the error test
EXITS = [
    (SystemSpec("I1", nu=2.0, mu=0.5), (1.0, 0.5, -1.0, 1.0), dict(t_end=10.0, rel_tol=1e-8)),
    (SystemSpec("II2", kappa=0.64, lam=1.73, mu=-1.17, nu=0.52, k=-0.81, ell=0.97, m=0.89,
                n=-1.13), (1.898, 1.067, -1.963, 0.056), dict(t_end=5.0, rel_tol=1e-3)),
]


def _exits():
    for spec, y0, controls in EXITS:
        traj = dynamics.integrate(spec, PhasePoint(*y0), **controls)
        print(spec.tag, traj.status, float.hex(traj.exit_time), _json(traj.stats))
        for row in (traj.times, *traj.states):
            print(" ".join(map(float.hex, row)))


def _outside(rng):
    """States outside the flow's domain: poles, zeros, negative and large
    coordinates, NaN and inf."""
    inf, nan = float("inf"), float("nan")
    fixed = [(1.0, 1.0, 0.5, 0.5), (1.0, -1.0, 0.5, 0.5), (0.0, 0.0, 0.5, 0.5),
             (1.0, 0.0, 0.5, 0.5), (0.0, 1.0, -0.5, 0.5), (-1.0, -0.5, 0.5, 0.5),
             (1e3, 1e3, 1e3, 1e3), (-1e3, 1e3, -1e3, 1e3), (1e3, 0.5, 0.5, 0.5),
             (0.5, -1e3, 0.5, 0.5), (nan, 1.0, 0.5, 0.5), (1.0, 1.0, inf, 0.5),
             (inf, 1.0, 0.5, 0.5)]
    return fixed + [tuple(rng.uniform(-3.0, 3.0, size=4)) for _ in range(8)]


def _rhs():
    cases = [(spec, [y0]) for spec, y0 in _pinned()]
    rng = np.random.default_rng(11)
    for spec in _specs():
        pts = sample_points(spec, 20, np.random.default_rng(7))
        cases.append((spec, [tuple(y) for y in pts.as_array().T] + _outside(rng)))
    for spec, states in cases:
        dH = dynamics._flow(spec).dH
        for y in states:
            try:
                out = _digits(dynamics._slope(dH, list(map(float, y))))
            except Exception as exc:  # the integrator rejects a step on several types
                out = f"{type(exc).__name__}: {exc}"
            print(spec.tag, "rhs", _digits(y), "->", out)


# specs with a revolution or linear-integral structure, as in CLI_RUNS
SYMMETRIC = [SystemSpec("I1", mu=0.5, nu=1.5), SystemSpec("II1", kappa=1.0),
             SystemSpec("I2", lam=0.6, nu=1.1, ell=0.2, n=0.4)]


def _sampled(spec):
    """The 50 points the geometry checks sample by default."""
    return sample_points(spec, 50, np.random.default_rng(poisson.DEFAULT_SEED))


def _revolution(spec, coords):
    return geometry.revolution_tag(spec, _sampled(spec), coords)


def _linear(spec, sign, coords):
    return geometry.linear_residual(spec, _sampled(spec), sign, coords)


def _geometry():
    for spec in [*_specs(), *SYMMETRIC]:
        pts = sample_points(spec, 50, np.random.default_rng(0xC0FFEE))
        for coords in ("liouville", "transformed"):
            residuals = _attempt(geometry._directional_residuals, spec, pts.xi,
                                 pts.eta, coords)
            if not isinstance(residuals, str):
                residuals = [float(r.max()) for r in residuals]
            print(_json([spec.tag, coords, _attempt(_revolution, spec, coords), residuals]))
        for sign in ("plus", "minus"):
            for coords in ("liouville", "transformed", "eta-only"):
                print(_json([spec.tag, sign, coords, _attempt(_linear, spec, sign, coords)]))


def _digits(values):
    return " ".join(f"{v:.17g}" for v in np.atleast_1d(values))


def _closed_forms():
    for spec in _specs():
        pts = sample_points(spec, 50, np.random.default_rng(0xC0FFEE))
        print(spec.tag, "characteristic", _digits(characteristic_residual(spec, pts.xi)))
        for which in ("metric_pair", "potential_pair"):
            print(spec.tag, which,
                  _digits(structural_pde_residual(spec, which, pts.xi, pts.eta)))
        print(spec.tag, "tilde_metric",
              _digits(build_fns(spec).tilde_metric(pts.xi, pts.eta)))


SAMPLE_SIZES = (1, 7, 2049, 20000)
LOW_SIZES = (100, 2049)


def _low_acceptance():
    """The all-zero spec and six draws with parameters of order 1e-3, per class."""
    rng = np.random.default_rng(5)
    for tag in CLASS_TAGS:
        yield SystemSpec(tag)
        yield from (SystemSpec(tag, *rng.uniform(-2.0, 2.0, size=8) * 1e-3)
                    for _ in range(6))


def _print_sample(spec, n):
    try:
        pts = sample_points(spec, n, np.random.default_rng(n))
    except SamplingError as exc:
        print(spec.tag, n, f"SamplingError: {exc}")
        return
    arr = pts.as_array()
    print(spec.tag, n, hashlib.sha256(arr.tobytes()).hexdigest(),
          _digits(arr[:, 0]), "|", _digits(arr[:, -1]))


def _sampling():
    for spec in _specs():
        for n in SAMPLE_SIZES:
            _print_sample(spec, n)
    for spec in _low_acceptance():
        for n in LOW_SIZES:
            _print_sample(spec, n)


# parameters set to zero so that top energy coefficients vanish and get trimmed
VANISHING = [("kappa",), ("lam", "mu"), ("nu",), ("kappa", "mu"), ("lam", "nu"),
             ("kappa", "lam", "mu", "nu"), ("k", "ell", "m", "n")]


def _degenerate(tag):
    """The all-zero spec of class ``tag``, then its specs of ``VANISHING``."""
    return [SystemSpec(tag)] + [SystemSpec(tag, **dict(REF, **dict.fromkeys(zeroed, 0.0)))
                                for zeroed in VANISHING]


ENERGIES = np.array([0.0, -0.0, 1.0, -2.5, 0.3, 7.25, -1e3])


def _hex(values):
    """Shape and hexadecimal floats of a number or an array."""
    arr = np.asarray(values, dtype=float)
    return f"{arr.shape} " + " ".join(map(float.hex, arr.ravel().tolist()))


def _constants():
    specs = list(_specs())
    for tag in CLASS_TAGS:
        specs += _degenerate(tag)
    for spec in specs:
        cp = constants_poly(spec)
        print(spec.tag, _json(dataclasses.asdict(spec)))
        for f in dataclasses.fields(cp):
            print(" ", f.name, _hex(getattr(cp, f.name)))
        for E in (ENERGIES, 0.7, -0.0):
            con = cp.at_energy(E)
            print("  at", _hex(E))
            for f in dataclasses.fields(con):
                value = getattr(con, f.name)
                print("   ", f.name, type(value).__name__, _hex(value))


def _jet_hex(jet):
    """A jet's value, gradient and, at order 2, packed Hessian in hexadecimal."""
    parts = (jet.val, jet.grad) + ((jet.hess,) if jet.order == 2 else ())
    return " | ".join(map(_hex, parts))


def _bracket_hex(b):
    return " | ".join(_hex(getattr(b, f.name)) for f in dataclasses.fields(b))


def _metric(spec):
    """The conformal factor g as an observable (momenta ignored)."""
    fns = build_fns(spec)
    return Observable(lambda xi, eta, p_xi, p_eta: fns.metric(xi, eta), label="g")


def _observables():
    for spec in _specs():
        pts = sample_points(spec, 20, np.random.default_rng(0xC0FFEE))
        H, A, B = hamiltonian(spec), integral_A(spec), integral_B(spec)
        for obs in (H, A, B, _metric(spec)):
            for order in (1, 2):
                print(spec.tag, obs.label, order, _jet_hex(obs.eval(pts, order)))
        print(spec.tag, "curvature", _hex(geometry.curvature(spec, pts.xi, pts.eta)))
        for F, G in ((H, A), (H, B), (A, B)):
            print(spec.tag, "bracket", F.label, G.label,
                  _bracket_hex(poisson.bracket(F, G, pts)))
        C = poisson.c_observable(spec)
        print(spec.tag, "C order1", _bracket_hex(C.order1(pts)))
        print(spec.tag, "C value", _hex(C.value(pts)))
        for y in pts.as_array().T:
            point = PhasePoint(*map(float, y))
            for obs in (H, A, B, _metric(spec)):
                out = _attempt(obs.dual, point)
                print(spec.tag, obs.label, "dual",
                      out if isinstance(out, str) else " | ".join(map(_hex, out)))
            # a 0-d point and a one-point batch: where numpy's axis-0
            # reductions may group terms differently
            for shape, alone in (("0-d", point), ("1-pt", PhasePoint(*y[:, None]))):
                for obs in (H, A, B):
                    out = _attempt(obs.eval, alone, 2)
                    print(spec.tag, obs.label, shape,
                          out if isinstance(out, str) else _jet_hex(out))
                for F, G in ((H, A), (H, B), (A, B)):
                    out = _attempt(poisson.bracket, F, G, alone)
                    print(spec.tag, "bracket", F.label, G.label, shape,
                          out if isinstance(out, str) else _bracket_hex(out))


FIELDS = ("F", "G", "f_pot", "g_pot", "F_tilde", "G_tilde", "f_tilde", "g_tilde",
          "intF", "intf", "A_of_xi", "sqrtA", "X_of_xi")


def _field_args(spec, fns, xi, eta):
    """The arguments each closed form takes at the points (xi, eta)."""
    u, v = (xi + eta, xi - eta) if spec.is_class_one() else (eta, eta)
    X, Y = fns.X_of_xi(xi), fns.X_of_xi(eta)
    U, V = X + Y, X - Y
    return dict(F=(u,), G=(v,), f_pot=(u,), g_pot=(v,), F_tilde=(U,), G_tilde=(V,),
                f_tilde=(U,), g_tilde=(V,), intF=(eta,), intf=(eta,),
                A_of_xi=(xi, eta), sqrtA=(xi, eta), X_of_xi=(xi, eta))


def _value_hex(value):
    return _jet_hex(value) if isinstance(value, Jet2) else _hex(value)


def _fields():
    specs = list(_specs())   # the reference spec and two draws per class
    for i, tag in enumerate(CLASS_TAGS):
        cases = [(spec, sample_points(spec, 20, np.random.default_rng(0xC0FFEE)))
                 for spec in specs[3 * i:3 * i + 3]]
        cases += [(spec, cases[0][1]) for spec in _degenerate(tag)]
        for spec, pts in cases:
            fns = build_fns(spec)
            print(spec.tag, "fields", _json(dataclasses.asdict(spec)))
            for kind in ("array", "jet"):
                xi, eta = pts.xi, pts.eta
                if kind == "jet":
                    xi, eta = CoordJet.seed(xi, 0), CoordJet.seed(eta, 1)
                with np.errstate(all="ignore"):
                    args = _field_args(spec, fns, xi, eta)
                    for name in FIELDS:
                        fn = getattr(fns, name)
                        for x in args[name]:
                            out = "None" if fn is None else _attempt(fn, x)
                            print(" ", kind, name, out if isinstance(out, str)
                                  else _value_hex(out))


def _fixed_row(row_id, cls, claim, values, annotation=None):
    """A hand-built catalog row with every parameter fixed at ``values``."""
    constraints = {p: {"kind": "fixed", "value": values.get(p, 0.0)}
                   for p in catalog.PARAM_NAMES}
    return catalog.CatalogEntry("corpus", row_id, cls, constraints, {"kind": claim}, (),
                                annotation=annotation or {})


HAND_ROWS = [
    # the algebra fails at this spec; the correction runs and does not rescue it
    _fixed_row("II2_fails", "II2", "revolution",
               {"kappa": 1e6, "lambda": -1.0, "mu": 1e-9, "nu": 1e6, "k": 1e6,
                "ell": -1.0, "m": -1.0, "n": 1e6},
               {"status": "revolution in transformed coordinates - unchecked"}),
    # a curved metric claimed flat: the first draw's claim fails
    _fixed_row("I3_curved", "I3", "curvature_zero",
               {"kappa": 1.0, "lambda": 0.5, "k": 0.4, "ell": -0.1, "m": 0.2, "n": 1.0}),
]


def _print_entry(entry, **kwargs):
    out = _attempt(catalog.verify_entry, entry, **kwargs)
    print(_json(out if isinstance(out, str) else out.to_dict()))


def _catalog():
    for table in catalog.TABLES:
        for entry in catalog.lookup(table=table, include_aliases=False):
            _print_entry(entry, free_draws=2)
            # the ``tables`` bench size
            _print_entry(entry, free_draws=5, seed=101, n_points=50)
    for entry in catalog.load_catalog():
        if entry.is_alias:
            _print_entry(entry, free_draws=2)
    for entry in HAND_ROWS:
        _print_entry(entry, free_draws=2)
        _print_entry(entry, free_draws=5, seed=101, n_points=50)


def _cli():
    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        # numpy's floating-point warnings name the source file and line, which
        # differ between the trees compared, so they are not printed
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings()):
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                code = cli.main(argv)
            except Exception as exc:  # what the interpreter would exit with
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        print("$ superint " + " ".join(argv))
        print(out.getvalue() + "--- stderr\n" + err.getvalue() + f"--- exit {code}")


if __name__ == "__main__":
    _library()
    _cli()
    _flow()
    _exits()
    _rhs()
    _geometry()
    _closed_forms()
    _constants()
    _catalog()
    _sampling()
    _observables()
    _fields()
